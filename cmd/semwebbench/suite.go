package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// suiteFile is what -suite writes and -compare reads: every workload's
// metrics with their sample counts, plus what the numbers depend on.
type suiteFile struct {
	Meta      suiteMeta              `json:"meta"`
	Workloads map[string]*suiteEntry `json:"workloads"`
}

type suiteMeta struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Clients     int     `json:"clients"`
	FlushPolicy string  `json:"flush_policy"`
	Dataset     struct {
		Triples    int `json:"triples"`
		Classes    int `json:"classes"`
		Props      int `json:"props"`
		BaseChunks int `json:"base_chunks"`
		TailChunks int `json:"tail_chunks"`
	} `json:"dataset"`
	Setups    int `json:"setups"`
	SnapEvery int `json:"write_read_checkpoint_every_cycles"`
}

type suiteEntry struct {
	Ops      int              `json:"ops"`
	Failed   int              `json:"failed"`
	EndToEnd map[string]value `json:"end_to_end,omitempty"`
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

func newSuiteFile(o options, clients int) *suiteFile {
	f := &suiteFile{Workloads: map[string]*suiteEntry{}}
	m := &f.Meta
	m.NProc, m.GOMAXPROCS, m.GoVersion = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	m.Commit = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	m.Seed, m.Seconds, m.Clients = o.seed, o.seconds, clients
	m.FlushPolicy = "fsync per commit (serve default)"
	m.Dataset.Triples, m.Dataset.Classes, m.Dataset.Props = o.triples, dsClasses, dsProps
	m.Dataset.BaseChunks, m.Dataset.TailChunks = baseChunks, tailChunks
	m.Setups, m.SnapEvery = o.setups, o.snapEvery
	return f
}

func (f *suiteFile) add(name string, res *result, traced bool) {
	e := f.Workloads[name]
	if e == nil {
		e = &suiteEntry{}
		f.Workloads[name] = e
	}
	if traced {
		e.PerLayer = res.Metrics
		return
	}
	e.Ops, e.Failed, e.EndToEnd = res.Ops, res.Failed, res.Metrics
}

func (f *suiteFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuiteFile(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print lists every metric by name with its unit, workload by workload.
func (f *suiteFile) print(w io.Writer) {
	for _, ws := range workloadSpecs {
		e := f.Workloads[ws.Name]
		if e == nil {
			continue
		}
		fmt.Fprintf(w, "%s: ops=%d failed=%d\n", ws.Name, e.Ops, e.Failed)
		for _, set := range []map[string]value{e.EndToEnd, e.PerLayer} {
			names := make([]string, 0, len(set))
			for n := range set {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(w, "  %-36s %14.4f %-10s n=%d\n", n, set[n].Value, set[n].Unit, set[n].Samples)
			}
		}
	}
}

// Sample counts below which a statistic is not supported by its data:
// a median wants three observations, a 95th percentile ten
// beyond it.
const (
	minSamplesMedian = 3
	minSamplesP95    = 200
)

// compareFiles prints, per workload and end-to-end metric, both values,
// their ratio, the bound, and whether the pair is within it. It returns
// 1 when any pair is outside.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readSuiteFile(pathA)
	b, errB := readSuiteFile(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "semwebbench:", err)
		return 2
	}
	return compareSuites(a, b, stdout)
}

func compareSuites(a, b *suiteFile, w io.Writer) int {
	outside := 0
	fmt.Fprintf(w, "%-13s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, ws := range workloadSpecs {
		ea, eb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if ea == nil || eb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, oka := ea.EndToEnd[m.Name]
			vb, okb := eb.EndToEnd[m.Name]
			if !oka || !okb {
				continue
			}
			ratio := vb.Value / va.Value
			verdict := "within"
			need := 0
			switch {
			case m.Name == "op_p95_ms":
				need = minSamplesP95
			case va.Samples > 0 || vb.Samples > 0:
				need = minSamplesMedian
			}
			switch {
			case min(va.Samples, vb.Samples) < need:
				verdict = "unresolved"
			case ratio > 1+m.Bound || ratio < 1/(1+m.Bound):
				verdict = "outside"
				outside++
			}
			fmt.Fprintf(w, "%-13s %-22s %14.4f %14.4f %8.4f %6.2f  %s\n", ws.Name, m.Name, va.Value, vb.Value, ratio, m.Bound, verdict)
		}
	}
	if outside > 0 {
		fmt.Fprintf(w, "%d pair(s) outside their bound\n", outside)
		return 1
	}
	return 0
}
