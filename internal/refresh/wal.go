package refresh

import (
	"fmt"
	"io"
	"os"
)

// WAL is the raw storage under the delta log: an append-only byte sequence
// with whole-log replace and prefix-truncate, enough for the log's replay /
// append / rewrite cycle. Record framing, checksums, and corrupt-tail
// recovery live in deltaLog, not here — a WAL only moves bytes.
//
// Implementations need not be goroutine-safe — the staged delta serializes
// access under its lock — and must not call back into the Manager.
type WAL interface {
	// Load returns the entire current contents.
	Load() ([]byte, error)
	// Append appends b at the end.
	Append(b []byte) error
	// Reset replaces the entire contents with b.
	Reset(b []byte) error
	// Truncate drops everything past the first n bytes.
	Truncate(n int64) error
	// Sync forces written bytes to durable storage.
	Sync() error
	// Close releases the log; no calls may follow.
	Close() error
}

// fileWAL is the local-disk WAL: one regular file, opened read-write and
// created on demand.
type fileWAL struct {
	f *os.File
}

// OpenFileWAL opens (creating if absent) the WAL file at path.
func OpenFileWAL(path string) (WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("refresh: wal: %w", err)
	}
	return &fileWAL{f: f}, nil
}

func (w *fileWAL) Load() ([]byte, error) {
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("refresh: wal: %w", err)
	}
	b, err := io.ReadAll(w.f)
	if err != nil {
		return nil, fmt.Errorf("refresh: wal: %w", err)
	}
	return b, nil
}

func (w *fileWAL) Append(b []byte) error {
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	return nil
}

func (w *fileWAL) Reset(b []byte) error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	if _, err := w.f.Write(b); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	return nil
}

func (w *fileWAL) Truncate(n int64) error {
	if err := w.f.Truncate(n); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	return nil
}

func (w *fileWAL) Sync() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("refresh: wal: %w", err)
	}
	return nil
}

func (w *fileWAL) Close() error { return w.f.Close() }
