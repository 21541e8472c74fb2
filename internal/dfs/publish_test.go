package dfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spatialhadoop/internal/geom"
	"spatialhadoop/internal/sindex"
)

// TestCreateCollision: Create fails fast against a published name, and an
// invisible rival is caught at Close — of two unclosed writers of one new
// name the first to close publishes, the second gets ErrExists and
// publishes nothing.
func TestCreateCollision(t *testing.T) {
	fs := New(Config{BlockSize: 64})
	w1, err1 := fs.Create("f")
	w2, err2 := fs.Create("f")
	if err1 != nil || err2 != nil {
		t.Fatalf("Create of an unpublished name = %v, %v, want both writers", err1, err2)
	}
	w1.WriteRecord("first")
	w2.WriteRecord("second")
	w2.WriteRecord("second")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	epoch, bytes := fs.FileEpoch("f"), fs.NodeBytes()
	if err := w1.Close(); !errors.Is(err, ErrExists) {
		t.Fatalf("losing Close = %v, want ErrExists", err)
	}
	if got, _ := fs.ReadAll("f"); len(got) != 2 || got[0] != "second" {
		t.Fatalf("file holds %v, want the first closer's records", got)
	}
	if fs.FileEpoch("f") != epoch || fmt.Sprint(fs.NodeBytes()) != fmt.Sprint(bytes) {
		t.Fatal("the losing Close changed the epoch or the node usage")
	}
	if _, err := fs.Create("f"); !errors.Is(err, ErrExists) {
		t.Fatalf("Create of a published name = %v, want ErrExists", err)
	}
}

// TestConcurrentReplaceLastCloseWins: any number of CreateOrReplace
// writers of one name may be open at once; every Close succeeds, each
// publishes its own generation whole, and the name ends up holding the one
// closed last.
func TestConcurrentReplaceLastCloseWins(t *testing.T) {
	fs := New(Config{BlockSize: 64})
	const writers = 8
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, err := fs.CreateOrReplace("f")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i <= g*10; i++ {
				w.WriteRecord(fmt.Sprintf("writer-%d", g))
			}
			if err := w.Close(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if _, err := openWhole(fs, "f"); err != nil {
		t.Fatal(err)
	}
	recs, _ := fs.ReadAll("f")
	for _, r := range recs {
		if r != recs[0] {
			t.Fatalf("file mixes generations: %q and %q", recs[0], r)
		}
	}
	var g int
	fmt.Sscanf(recs[0], "writer-%d", &g)
	if len(recs) != g*10+1 {
		t.Fatalf("%s published %d records, wrote %d", recs[0], len(recs), g*10+1)
	}
	checkNodeBytes(t, fs)

	// Serially, last Close wins whatever the Create order was.
	a, _ := fs.CreateOrReplace("f")
	b, _ := fs.CreateOrReplace("f")
	a.WriteRecord("a")
	b.WriteRecord("b")
	b.Close()
	a.Close()
	if recs, _ := fs.ReadAll("f"); len(recs) != 1 || recs[0] != "a" {
		t.Fatalf("file holds %v, want the last closer's [a]", recs)
	}
}

// openWhole opens the file and checks that the generation it got is
// complete: its totals and blocks agree and every block verifies.
func openWhole(fs *FileSystem, name string) (*File, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	var recs, bytes int64
	for _, b := range f.Blocks {
		recs += int64(b.NumRecords())
		bytes += b.Bytes
		if err := b.Verify(); err != nil {
			return nil, fmt.Errorf("%s@%d: %w", name, f.Epoch(), err)
		}
	}
	if recs != f.Records || bytes != f.Bytes {
		return nil, fmt.Errorf("%s@%d: blocks hold %d records / %d bytes, file says %d / %d", name, f.Epoch(), recs, bytes, f.Records, f.Bytes)
	}
	return f, nil
}

// checkNodeBytes asserts the data-node usage equals the bytes of the
// published files, with no node below zero.
func checkNodeBytes(t *testing.T, fs *FileSystem) {
	t.Helper()
	var want, got int64
	for _, name := range fs.List() {
		f, _ := fs.Open(name)
		want += f.Bytes
	}
	for node, b := range fs.NodeBytes() {
		if b < 0 {
			t.Fatalf("node %d stores %d bytes", node, b)
		}
		got += b
	}
	if got != want {
		t.Fatalf("nodes store %d bytes, published files hold %d", got, want)
	}
}

// TestNodeBytesFollowPublishedFiles runs a seeded sequence of create,
// replace, delete, corrupt and abandoned writers: after every step the
// data nodes store exactly the published files' bytes. (Before files were
// published by Close, an abandoned writer left a partial file whose blocks
// the next replacement subtracted without Close ever having added them,
// driving NodeBytes negative.)
func TestNodeBytesFollowPublishedFiles(t *testing.T) {
	fs := New(Config{BlockSize: 48, DataNodes: 3})
	rng := rand.New(rand.NewSource(21))
	names := []string{"a", "b", "c"}
	write := func(w *Writer) {
		for i, n := 0, rng.Intn(30); i < n; i++ {
			w.WriteRecord(fmt.Sprintf("rec-%0*d", 1+rng.Intn(12), i))
		}
	}
	for step := 0; step < 400; step++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(6); op {
		case 0: // create (fails fast when published)
			if w, err := fs.Create(name); err == nil {
				write(w)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			} else if !fs.Exists(name) {
				t.Fatalf("step %d: Create of a free name: %v", step, err)
			}
		case 1, 2: // replace
			w, _ := fs.CreateOrReplace(name)
			write(w)
			w.Close()
		case 3:
			fs.Delete(name)
		case 4: // abandon mid-file
			w, _ := fs.CreateOrReplace(name)
			write(w)
		case 5:
			fs.CorruptBlock(name, 0) // errors on missing/empty files, harmlessly
		}
		checkNodeBytes(t, fs)
	}
}

// TestReplaceWhileQuery: readers open a file while it is replaced a
// thousand times. Whatever generation an Open returns is whole — totals,
// index and blocks agree and every block verifies — and generations are
// seen in publication order. Cycle c publishes c%60+1 records and an index
// whose Space.MinX names c.
func TestReplaceWhileQuery(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3})
	replace := func(c int) {
		w, _ := fs.CreateOrReplace("f")
		for i := 0; i <= c%60; i++ {
			if i%7 == 0 {
				w.SetPartition(fmt.Sprint("p", i/7))
			}
			w.WriteRecord(fmt.Sprintf("cycle-%d-rec-%d", c, i))
		}
		w.SetIndex(&sindex.GlobalIndex{Space: geom.Rect{MinX: float64(c)}})
		if err := w.Close(); err != nil {
			t.Error(err)
		}
	}
	replace(0)
	const cycles = 1000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for last := 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				f, err := openWhole(fs, "f")
				if err != nil {
					t.Error(err)
					return
				}
				c := int(f.Index.Space.MinX)
				if int64(c%60+1) != f.Records || c < last {
					t.Errorf("opened cycle %d after %d with %d records, index space %v", c, last, f.Records, f.Index.Space)
					return
				}
				last = c
				if recs, err := fs.ReadAll("f"); err != nil || len(recs) == 0 {
					t.Errorf("ReadAll during replacement: %d records, %v", len(recs), err)
					return
				}
			}
		}()
	}
	for c := 1; c <= cycles; c++ {
		replace(c)
	}
	close(stop)
	wg.Wait()
	checkNodeBytes(t, fs)
}
