package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestChecksumRoundTrip: blocks written through the writer verify clean,
// and a clean file reads whole.
func TestChecksumRoundTrip(t *testing.T) {
	fs := New(Config{BlockSize: 64, DataNodes: 3})
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w.SetPartition("p0")
	for i := 0; i < 10; i++ {
		w.WriteRecord(fmt.Sprintf("record-%03d", i))
	}
	w.SetPartition("p1")
	for i := 0; i < 10; i++ {
		w.WriteRecord(fmt.Sprintf("other-%03d", i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("f")
	if len(f.Blocks) < 2 {
		t.Fatalf("blocks = %d, want several", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Checksum() == 0 {
			t.Errorf("block %d has zero checksum", i)
		}
		if err := b.Verify(); err != nil {
			t.Errorf("block %d: %v", i, err)
		}
		if err := b.VerifyCached(); err != nil {
			t.Errorf("block %d cached: %v", i, err)
		}
	}
	if issues := fs.Scrub(); len(issues) != 0 {
		t.Errorf("scrub on clean fs reported %v", issues)
	}

	if _, err := fs.ReadAll("f"); err != nil {
		t.Errorf("ReadAll of a clean file: %v", err)
	}
}

// TestChecksumDetectsCorruption: a flipped byte is caught by Verify,
// VerifyCached, ReadAll and Scrub, with the typed ErrChecksum sentinel, by
// everyone who opens the file after the corruption — which publishes a
// damaged copy of the block under its old ID and checksum and leaves the
// generation a reader already holds alone.
func TestChecksumDetectsCorruption(t *testing.T) {
	fs := New(Config{BlockSize: 1 << 20, DataNodes: 2})
	if err := fs.WriteFile("f", []string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	// Clean reads succeed and warm the verification cache.
	if _, err := fs.ReadAll("f"); err != nil {
		t.Fatal(err)
	}
	held, _ := fs.Open("f")
	if err := fs.CorruptBlock("f", 0); err != nil {
		t.Fatal(err)
	}
	if err := held.Blocks[0].Verify(); err != nil || held.Blocks[0].Records()[0] != "alpha" {
		t.Fatalf("corruption reached a generation opened before it: %v, %q", err, held.Blocks[0].Records())
	}

	f, _ := fs.Open("f")
	b := f.Blocks[0]
	if b == held.Blocks[0] || b.ID != held.Blocks[0].ID || b.Checksum() != held.Blocks[0].Checksum() || f.Epoch() <= held.Epoch() {
		t.Fatalf("corrupt generation must carry a copy of the block under its ID and checksum at a later epoch")
	}
	err := b.Verify()
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("Verify after corruption = %v, want ErrChecksum", err)
	}
	var cerr *ChecksumError
	if !errors.As(err, &cerr) || cerr.Block != b.ID || cerr.Want == cerr.Got {
		t.Fatalf("checksum error detail = %+v", cerr)
	}
	if !cerr.Transient() {
		t.Error("checksum failures must classify as transient (replica re-read)")
	}
	// The damaged copy starts with no cached verification.
	if err := b.VerifyCached(); !errors.Is(err, ErrChecksum) {
		t.Errorf("VerifyCached after corruption = %v", err)
	}
	if _, err := fs.ReadAll("f"); !errors.Is(err, ErrChecksum) {
		t.Errorf("ReadAll after corruption = %v, want ErrChecksum", err)
	}

	issues := fs.Scrub()
	if len(issues) != 1 {
		t.Fatalf("scrub issues = %v, want exactly one", issues)
	}
	if issues[0].File != "f" || issues[0].Block != b.ID {
		t.Errorf("scrub issue = %+v", issues[0])
	}
}

// TestCorruptBlockArgs covers the hook's error paths.
func TestCorruptBlockArgs(t *testing.T) {
	fs := New(Config{})
	if err := fs.CorruptBlock("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing file: %v", err)
	}
	fs.WriteFile("f", []string{"x"})
	if err := fs.CorruptBlock("f", 5); err == nil {
		t.Error("out-of-range block index must error")
	}
}

// TestUnsealedBlockVerifiesTrivially: there is no unsealed block to
// verify. A file mid-write is not reachable at all — Open and ReadAll
// report ErrNotFound, Scrub has nothing to look at — and once Close has
// published it every block, the last one included, carries its checksum
// and verifies.
func TestUnsealedBlockVerifiesTrivially(t *testing.T) {
	fs := New(Config{BlockSize: 16})
	w, _ := fs.Create("f")
	for i := 0; i < 5; i++ {
		w.WriteRecord("partial-record")
	}
	if _, err := fs.Open("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Open before Close = %v, want ErrNotFound", err)
	}
	if _, err := fs.ReadAll("f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadAll before Close = %v, want ErrNotFound", err)
	}
	if fs.Exists("f") || len(fs.List()) != 0 || len(fs.Scrub()) != 0 {
		t.Fatal("a file under construction is visible")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(f.Blocks))
	}
	for i, b := range f.Blocks {
		if b.Checksum() != checksumRecords(b.Records()) {
			t.Errorf("block %d published without its checksum", i)
		}
		if err := b.Verify(); err != nil {
			t.Errorf("block %d: %v", i, err)
		}
	}
}

// TestChecksumRecordsMatchesPerRecordReference pins the chunked CRC
// kernel to the definition it replaced — one crc32.Update per record plus
// its newline — on the shapes where the staging buffer could go wrong
// (empty block, empty records, a record longer than the buffer, records
// ending exactly on the buffer edge), and pins that it does not allocate.
func TestChecksumRecordsMatchesPerRecordReference(t *testing.T) {
	reference := func(records []string) uint32 {
		var crc uint32
		for _, r := range records {
			crc = crc32.Update(crc, crc32.IEEETable, []byte(r+"\n"))
		}
		return crc
	}
	rng := rand.New(rand.NewSource(3))
	random := func(n int) string {
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	many := make([]string, 5000)
	for i := range many {
		many[i] = random(rng.Intn(60))
	}
	cases := map[string][]string{
		"empty block":            nil,
		"one empty record":       {""},
		"empty records":          {"", "", ""},
		"short":                  {"1,2", "3.5,4.5"},
		"longer than the buffer": {"a", random(3 * 4096), "b"},
		"fills the buffer":       {random(4095), random(4096), random(4097), random(8191), ""},
		"many small":             many,
	}
	for name, recs := range cases {
		if got, want := checksumRecords(recs), reference(recs); got != want {
			t.Errorf("%s: checksumRecords = %08x, per-record reference = %08x", name, got, want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { checksumRecords(many) }); n != 0 {
		t.Errorf("checksumRecords allocates %v times per call, want 0", n)
	}
}
