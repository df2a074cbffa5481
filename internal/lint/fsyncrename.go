package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// FsyncRename enforces the PR 3 crash-safety protocol in
// internal/persist and internal/repl: installing a tmp file with
// os.Rename is only durable if the source file's contents were
// fsynced first (otherwise the rename can land pointing at garbage)
// and the directory entry is fsynced after (otherwise the rename
// itself can vanish on crash). Within the function performing such a
// rename the analyzer requires, in statement order:
//
//   - before the rename: a (*os.File).Sync call (persist's
//     installFile syncs its tmp file itself), or a call to a
//     write-and-sync helper (a function whose name contains "Synced",
//     such as persist's writeSnapshotSynced);
//   - after the rename (deferred calls count as "after"): a call to a
//     directory-fsync helper (name containing "syncDir"/"SyncDir") or
//     another (*os.File).Sync.
//
// Only renames whose source operand mentions "tmp" are checked — that
// is the repo's naming convention for not-yet-durable staging files.
// A protocol split across functions (the caller synced the tmp file)
// is out of the analyzer's view: annotate the rename site with
// //lint:ignore fsyncrename <who synced it>.
var FsyncRename = &Analyzer{
	Name: "fsyncrename",
	Doc: "require the fsync-before-rename + directory-fsync protocol around " +
		"os.Rename of tmp paths in internal/persist and internal/repl",
	AppliesTo: SuffixMatcher(
		"internal/persist", "internal/repl",
		"internal/persist_test", "internal/repl_test",
	),
	Run: runFsyncRename,
}

func runFsyncRename(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRenames(pass, fd)
		}
	}
	return nil
}

// syncSites records where syncing calls occur within one function
// body. Deferred calls are ordered at the function's end.
type syncSites struct {
	fileSync []token.Pos // content syncs: File.Sync, *Synced helpers
	dirSync  []token.Pos // directory syncs: syncDir-ish helpers, File.Sync
	deferred struct {
		fileSync bool
		dirSync  bool
	}
}

func checkRenames(pass *Pass, fd *ast.FuncDecl) {
	var renames []*ast.CallExpr
	var sites syncSites

	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.DeferStmt:
				walk(m.Call, true)
				return false
			case *ast.CallExpr:
				classifyCall(pass, m, inDefer, &sites, &renames)
			}
			return true
		})
	}
	walk(fd.Body, false)

	for _, call := range renames {
		src := call.Args[0]
		srcText := exprText(pass.Fset, src)
		if !strings.Contains(strings.ToLower(srcText), "tmp") {
			continue
		}
		pos := call.Pos()
		if !sites.syncedBefore(pos) {
			pass.Reportf(pos,
				"os.Rename(%s, …) without a preceding sync of the source in this function: fsync the tmp file (File.Sync or a *Synced helper) before renaming it into place (PR 3 protocol)",
				srcText)
		}
		if !sites.dirSyncedAfter(pos) {
			pass.Reportf(pos,
				"os.Rename(%s, …) without a following directory fsync in this function: call syncDir on the containing directory so the rename itself is durable (PR 3 protocol)",
				srcText)
		}
	}
}

func classifyCall(pass *Pass, call *ast.CallExpr, inDefer bool, sites *syncSites, renames *[]*ast.CallExpr) {
	if isPkgFunc(pass.Info, call, "os", "Rename") && len(call.Args) == 2 {
		*renames = append(*renames, call)
		return
	}
	name := calleeName(call)
	switch {
	case name == "Sync" && isOSFileMethod(pass, call):
		if inDefer {
			sites.deferred.fileSync = true
			sites.deferred.dirSync = true
		} else {
			sites.fileSync = append(sites.fileSync, call.Pos())
			sites.dirSync = append(sites.dirSync, call.Pos())
		}
	case strings.Contains(strings.ToLower(name), "syncdir") ||
		strings.Contains(strings.ToLower(name), "dirsync"):
		if inDefer {
			sites.deferred.dirSync = true
		} else {
			sites.dirSync = append(sites.dirSync, call.Pos())
		}
	case strings.Contains(name, "Synced") || strings.Contains(name, "synced"):
		if !inDefer {
			sites.fileSync = append(sites.fileSync, call.Pos())
		}
	}
}

func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isOSFileMethod(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && typeIsFrom(tv.Type, "os", "File")
}

func (s *syncSites) syncedBefore(pos token.Pos) bool {
	for _, p := range s.fileSync {
		if p < pos {
			return true
		}
	}
	return false
}

func (s *syncSites) dirSyncedAfter(pos token.Pos) bool {
	if s.deferred.dirSync {
		return true
	}
	for _, p := range s.dirSync {
		if p > pos {
			return true
		}
	}
	return false
}
