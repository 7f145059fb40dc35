package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ErrNoCheckpoint reports a directory that holds no checkpoint files
// at all — a fresh start, not a failure.
var ErrNoCheckpoint = fmt.Errorf("checkpoint: no checkpoint found")

// filePrefix and fileSuffix frame the on-disk naming:
// checkpoint-<tick>.ckpt, zero-padded so lexical order is tick order.
const (
	filePrefix = "checkpoint-"
	fileSuffix = ".ckpt"
)

// keep is how many snapshots survive pruning: the corruption fallback
// needs a predecessor of the newest.
const keep = 2

// Manager stores sealed snapshots in a directory, one file per tick,
// written atomically. It keeps the newest two snapshots so that a
// corrupted latest file still leaves a previous good one to fall back
// to.
type Manager struct {
	dir string
}

// NewManager creates the directory if needed and returns a manager
// over it.
func NewManager(dir string) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Manager{dir: dir}, nil
}

// Path returns the file name a snapshot of the given tick uses.
func (m *Manager) Path(tick int) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s%09d%s", filePrefix, tick, fileSuffix))
}

// Save seals the payload and writes it atomically (temp file + fsync +
// rename, then directory fsync), pruning all but the newest two
// snapshots. A crash at any instant leaves either the previous set of
// files or the new one — never a half-written checkpoint under the
// final name.
func (m *Manager) Save(tick int, payload []byte) error {
	blob := Seal(payload)
	final := m.Path(tick)
	tmp, err := os.CreateTemp(m.dir, filePrefix+"tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d, err := os.Open(m.dir); err == nil {
		// Persist the rename itself; without this a power cut can roll
		// the directory entry back even though the data blocks are safe.
		d.Sync()
		d.Close()
	}
	m.prune()
	return nil
}

// prune removes all but the newest keep snapshots (best effort).
func (m *Manager) prune() {
	ticks, _ := m.Ticks()
	for i := 0; i < len(ticks)-keep; i++ {
		os.Remove(m.Path(ticks[i]))
	}
}

// Ticks lists the stored snapshot ticks in ascending order. Only a
// file named exactly as Path names its tick counts: a stray such as
// checkpoint-90.ckpt would otherwise stand for a tick whose file
// Latest and prune cannot find.
func (m *Manager) Ticks() ([]int, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var ticks []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix)
		t, err := strconv.Atoi(num)
		if err != nil || name != filepath.Base(m.Path(t)) {
			continue // temp files and strangers are not checkpoints
		}
		ticks = append(ticks, t)
	}
	sort.Ints(ticks)
	return ticks, nil
}

// Snapshot is one validated checkpoint loaded from the store.
type Snapshot struct {
	// Tick is the simulation tick the snapshot was taken at.
	Tick int
	// Payload is the decoded (checksum-verified) checkpoint payload.
	Payload []byte
	// Corrupt names newer snapshot files that failed validation and
	// were skipped to reach this one — surfaced so callers can warn.
	Corrupt []string
}

// Latest loads the newest valid snapshot, falling back over corrupted
// files to the previous good one. It returns ErrNoCheckpoint when the
// directory holds no checkpoint files, and a hard error when files
// exist but none validates — a damaged store must never be mistaken
// for a fresh start.
func (m *Manager) Latest() (*Snapshot, error) {
	ticks, err := m.Ticks()
	if err != nil {
		return nil, err
	}
	if len(ticks) == 0 {
		return nil, ErrNoCheckpoint
	}
	var corrupt []string
	for i := len(ticks) - 1; i >= 0; i-- {
		path := m.Path(ticks[i])
		blob, err := os.ReadFile(path)
		if err == nil {
			var payload []byte
			if payload, err = Open(blob); err == nil {
				return &Snapshot{Tick: ticks[i], Payload: payload, Corrupt: corrupt}, nil
			}
		}
		corrupt = append(corrupt, filepath.Base(path))
	}
	return nil, fmt.Errorf("checkpoint: all %d snapshot(s) corrupt (%s): %w",
		len(corrupt), strings.Join(corrupt, ", "), ErrCorrupt)
}
