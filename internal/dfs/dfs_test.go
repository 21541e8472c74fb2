package dfs

import (
	"errors"
	"fmt"
	"testing"
)

func TestCreateWriteRead(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf("record-%03d", i)
		w.WriteRecord(rec)
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadAll("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestBlockCutting(t *testing.T) {
	fs := New(Config{BlockSize: 25, DataNodes: 2})
	w, _ := fs.Create("f")
	for i := 0; i < 10; i++ {
		w.WriteRecord("0123456789") // 11 bytes each with newline
	}
	w.Close()
	f, _ := fs.Open("f")
	// 25-byte blocks hold two 11-byte records each: 5 blocks.
	if len(f.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(f.Blocks))
	}
	for _, b := range f.Blocks {
		if b.Bytes > 25 {
			t.Errorf("block %d overflows: %d bytes", b.ID, b.Bytes)
		}
	}
	if f.Records != 10 {
		t.Errorf("records = %d", f.Records)
	}
}

func TestOversizeRecordGetsOwnBlock(t *testing.T) {
	fs := New(Config{BlockSize: 4, DataNodes: 1})
	w, _ := fs.Create("f")
	w.WriteRecord("this record is far larger than a block")
	w.WriteRecord("x")
	w.Close()
	got, err := fs.ReadAll("f")
	if err != nil || len(got) != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestPartitionedBlocks(t *testing.T) {
	fs := New(Config{BlockSize: 1024, DataNodes: 2})
	w, _ := fs.Create("f")
	w.SetPartition("c0")
	w.WriteRecord("a")
	w.WriteRecord("b")
	w.SetPartition("c1")
	w.WriteRecord("c")
	w.Close()
	f, _ := fs.Open("f")
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2 (one per partition)", len(f.Blocks))
	}
	if f.Blocks[0].Partition != "c0" || f.Blocks[1].Partition != "c1" {
		t.Errorf("partitions = %q, %q", f.Blocks[0].Partition, f.Blocks[1].Partition)
	}
	if f.Blocks[0].NumRecords() != 2 || f.Blocks[1].NumRecords() != 1 {
		t.Error("bad record placement")
	}
}

func TestErrors(t *testing.T) {
	fs := New(Config{})
	if _, err := fs.Open("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing: %v", err)
	}
	if err := fs.WriteFile("f", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("f"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create: %v", err)
	}
	fs.Delete("f")
	if fs.Exists("f") {
		t.Error("file should be deleted")
	}
	fs.Delete("f") // idempotent
}

func TestMasterAttachment(t *testing.T) {
	fs := New(Config{})
	w, _ := fs.Create("f")
	w.WriteRecord("data")
	w.SetMaster([]byte("index-bytes"))
	w.Close()
	f, _ := fs.Open("f")
	if string(f.Master) != "index-bytes" {
		t.Errorf("master = %q", f.Master)
	}
}

func TestListAndReplace(t *testing.T) {
	fs := New(Config{})
	fs.WriteFile("b", []string{"1"})
	fs.WriteFile("a", []string{"2"})
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	w, err := fs.CreateOrReplace("a")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord("replaced")
	w.Close()
	recs, _ := fs.ReadAll("a")
	if len(recs) != 1 || recs[0] != "replaced" {
		t.Errorf("replace failed: %v", recs)
	}
	if _, err := fs.ReadAll("missing"); err == nil {
		t.Error("expected error reading missing file")
	}
}

func TestNodeBytesAccounting(t *testing.T) {
	fs := New(Config{BlockSize: 16, DataNodes: 2})
	fs.WriteFile("f", []string{"0123456789", "0123456789", "0123456789"})
	total := int64(0)
	for _, b := range fs.NodeBytes() {
		total += b
	}
	f, _ := fs.Open("f")
	if total != f.Bytes {
		t.Errorf("node bytes %d, file bytes %d", total, f.Bytes)
	}
	fs.Delete("f")
	total = 0
	for _, b := range fs.NodeBytes() {
		total += b
	}
	if total != 0 {
		t.Errorf("bytes not released on delete: %d", total)
	}
}

func TestConcurrentReaders(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 4})
	var recs []string
	for i := 0; i < 500; i++ {
		recs = append(recs, fmt.Sprintf("r%04d", i))
	}
	fs.WriteFile("f", recs)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				got, err := fs.ReadAll("f")
				if err != nil || len(got) != 500 {
					t.Error("concurrent read failed")
					break
				}
				fs.List()
				fs.Exists("f")
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	fs := New(Config{BlockSize: 8, DataNodes: 4})
	w, _ := fs.Create("f")
	for i := 0; i < 32; i++ {
		w.WriteRecord("1234567") // one record per block
	}
	w.Close()
	f, _ := fs.Open("f")
	nodes := map[int]int{}
	for _, b := range f.Blocks {
		nodes[b.Node]++
	}
	if len(nodes) != 4 {
		t.Errorf("blocks spread over %d nodes, want 4", len(nodes))
	}
	for n, c := range nodes {
		if c != 8 {
			t.Errorf("node %d has %d blocks, want 8", n, c)
		}
	}
}

// TestSealedBlocksGiveBackSlack: a block outlives its writer by the life
// of the file, so the capacity append left over its records is returned at
// seal — for full blocks, the short last block and a partition's only
// block alike.
func TestSealedBlocksGiveBackSlack(t *testing.T) {
	fs := New(Config{BlockSize: 4 << 10, DataNodes: 2})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if i == 2900 {
			w.SetPartition("tail")
		}
		w.WriteRecord(fmt.Sprintf("record-%04d", i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil || len(f.Blocks) < 5 {
		t.Fatalf("Open = %v, %v; want several blocks", f, err)
	}
	for i, b := range f.Blocks {
		if n, c := len(b.records), cap(b.records); c-n > n/8 {
			t.Errorf("block %d keeps room for %d records and holds %d", i, c, n)
		}
	}
}
