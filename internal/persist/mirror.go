package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// MirrorFile marks a database directory as a replication mirror and
// records which leader WAL generation its bytes belong to. Its presence
// is also the ownership check: a directory that holds a database but
// no marker is somebody's primary, and InstallMirror refuses to wipe
// it.
const MirrorFile = "repl.json"

// mirrorMarker is the MirrorFile payload. The generation is a
// full-range uint64, which JSON numbers cannot carry exactly, so it
// travels as a decimal string. Generation zero is the provisional
// marker InstallMirror writes before it wipes the directory: a crash
// mid-install leaves it behind, and MirrorGeneration reads it as
// "mine, but unusable — redo".
type mirrorMarker struct {
	Generation string `json:"generation"`
}

// MirrorGeneration returns the leader generation the mirror in dir
// holds. Zero means a bootstrap is needed: the directory holds no
// database yet, or its marker is provisional or unreadable. A
// directory holding a database but no marker is an error.
func MirrorGeneration(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, MirrorFile))
	if os.IsNotExist(err) {
		for _, name := range []string{SnapshotFile, WALFile} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return 0, fmt.Errorf("persist: %s holds a database but no %s marker; refusing to replace it with a mirror", dir, MirrorFile)
			}
		}
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var m mirrorMarker
	if json.Unmarshal(b, &m) == nil {
		if gen, err := strconv.ParseUint(m.Generation, 10, 64); err == nil {
			return gen, nil
		}
	}
	return 0, nil
}

// InstallMirror replaces the contents of dir with a mirror of a
// leader's WAL generation gen: the snapshot read from snap (nil when
// the leader has none), then the WAL prefix writeWAL streams, verbatim
// from byte 0 and header included, so the mirror's offsets are the
// leader's. The marker brackets the install — provisional (generation
// 0) before anything is wiped, gen only once the snapshot and WAL are
// durable — so a crash at any point leaves either the previous mirror
// or one MirrorGeneration reports as needing a bootstrap. The WAL
// bytes are not verified here: Open replays them like any log and
// keeps the valid prefix.
func InstallMirror(dir string, gen uint64, snap io.Reader, writeWAL func(io.Writer) error, sync bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := MirrorGeneration(dir); err != nil {
		return err
	}
	if err := writeMirrorMarker(dir, 0, sync); err != nil {
		return err
	}
	for _, name := range []string{SnapshotFile, WALFile, WALFile + ".torn", snapshotTmp} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if snap != nil {
		copySnap := func(w io.Writer) error {
			_, err := io.Copy(w, snap)
			return err
		}
		if err := installFile(dir, SnapshotFile, copySnap, sync); err != nil {
			return err
		}
	}
	if err := installFile(dir, WALFile, writeWAL, sync); err != nil {
		return err
	}
	return writeMirrorMarker(dir, gen, sync)
}

func writeMirrorMarker(dir string, gen uint64, sync bool) error {
	b, err := json.Marshal(mirrorMarker{Generation: strconv.FormatUint(gen, 10)})
	if err != nil {
		return err
	}
	return installFile(dir, MirrorFile, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}, sync)
}
