package dfs

import (
	"bufio"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The on-disk layout written by SaveDir: per DFS file <name> (URL-escaped),
//
//	<name>.data    records, one per line, in block order
//	<name>.meta    one "partition|numRecords|node" line per block
//	<name>.master  the raw master attachment, when present
//
// The format keeps the partition structure and the spatial master index,
// so a reloaded file system serves the same per-partition splits and
// prunes identically (blocks inside one partition may be re-cut to the
// loading file system's block size).

// SaveDir persists every file to dir (created if missing).
func (fs *FileSystem) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	for name, f := range fs.files {
		esc := url.PathEscape(name)
		data, err := os.Create(filepath.Join(dir, esc+".data"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(data)
		var meta strings.Builder
		for _, b := range f.Blocks {
			fmt.Fprintf(&meta, "%s|%d|%d\n", url.PathEscape(b.Partition), b.NumRecords(), b.Node)
			for _, rec := range b.Records() {
				if strings.ContainsRune(rec, '\n') {
					data.Close()
					return fmt.Errorf("dfs: record with newline cannot be persisted (file %s)", name)
				}
				fmt.Fprintln(w, rec)
			}
		}
		if err := w.Flush(); err != nil {
			data.Close()
			return err
		}
		if err := data.Close(); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, esc+".meta"), []byte(meta.String()), 0o644); err != nil {
			return err
		}
		if len(f.Master) > 0 {
			if err := os.WriteFile(filepath.Join(dir, esc+".master"), f.Master, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadDir reads a directory written by SaveDir into a fresh FileSystem.
func LoadDir(dir string, cfg Config) (*FileSystem, error) {
	fs := New(cfg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".meta") {
			continue
		}
		esc := strings.TrimSuffix(e.Name(), ".meta")
		name, err := url.PathUnescape(esc)
		if err != nil {
			return nil, fmt.Errorf("dfs: bad persisted file name %q: %v", esc, err)
		}
		metaBytes, err := os.ReadFile(filepath.Join(dir, esc+".meta"))
		if err != nil {
			return nil, err
		}
		dataBytes, err := os.ReadFile(filepath.Join(dir, esc+".data"))
		if err != nil {
			return nil, err
		}
		var records []string
		if len(dataBytes) > 0 {
			records = strings.Split(strings.TrimSuffix(string(dataBytes), "\n"), "\n")
		}

		w, err := fs.Create(name)
		if err != nil {
			return nil, err
		}
		next := 0
		for _, line := range strings.Split(strings.TrimSpace(string(metaBytes)), "\n") {
			if line == "" {
				continue
			}
			parts := strings.Split(line, "|")
			if len(parts) != 3 {
				return nil, fmt.Errorf("dfs: bad meta line %q in %s", line, e.Name())
			}
			partition, err := url.PathUnescape(parts[0])
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				return nil, fmt.Errorf("dfs: bad record count in %q", line)
			}
			if next+n > len(records) {
				return nil, fmt.Errorf("dfs: %s.data truncated: need %d records, have %d",
					esc, next+n, len(records))
			}
			// Force a block cut matching the persisted boundary: cut when
			// the partition changes or unconditionally between blocks.
			w.SetPartition(partition)
			for i := 0; i < n; i++ {
				w.WriteRecord(records[next])
				next++
			}
		}
		if next != len(records) {
			return nil, fmt.Errorf("dfs: %s.data has %d extra records", esc, len(records)-next)
		}
		if master, err := os.ReadFile(filepath.Join(dir, esc+".master")); err == nil {
			w.SetMaster(master)
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	return fs, nil
}
