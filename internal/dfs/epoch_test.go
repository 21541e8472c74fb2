package dfs

import "testing"

// TestFileEpochMonotone: a name's epoch changes exactly when a generation
// is published — create, replace, delete + create, the corruption hook —
// each time to a strictly higher value, and building a generation (records,
// master) moves nothing until Close.
func TestFileEpochMonotone(t *testing.T) {
	fs := New(Config{BlockSize: 64})
	last := int64(0)
	build := func(create func(string) (*Writer, error)) {
		t.Helper()
		before := fs.FileEpoch("f")
		w, err := create("f")
		if err != nil {
			t.Fatal(err)
		}
		w.WriteRecord("a")
		w.WriteRecord("b")
		w.SetMaster([]byte("idx"))
		if got := fs.FileEpoch("f"); got != before {
			t.Fatalf("epoch moved from %d to %d before Close", before, got)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	step := func(what string) {
		t.Helper()
		e := fs.FileEpoch("f")
		if e <= last {
			t.Fatalf("%s: epoch %d did not advance past %d", what, e, last)
		}
		if f, _ := fs.Open("f"); f.Epoch() != e {
			t.Fatalf("%s: handle epoch %d, FileEpoch %d", what, f.Epoch(), e)
		}
		last = e
	}
	if got := fs.FileEpoch("f"); got != 0 {
		t.Fatalf("missing file epoch = %d, want 0", got)
	}
	build(fs.Create)
	step("create")
	build(fs.CreateOrReplace)
	step("replace")
	if err := fs.CorruptBlock("f", 0); err != nil {
		t.Fatal(err)
	}
	step("corrupt block")
	fs.Delete("f")
	if got := fs.FileEpoch("f"); got != 0 {
		t.Fatalf("deleted file epoch = %d, want 0", got)
	}
	fs.WriteFile("other", []string{"x"}) // other names share the clock
	build(fs.Create)
	step("delete + create")
}

// TestFileEpochNeverReused: deleting and re-creating a file yields a
// strictly higher epoch, so a (name, epoch) cache key can never alias an
// older incarnation's results.
func TestFileEpochNeverReused(t *testing.T) {
	fs := New(Config{})
	if err := fs.WriteFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	e1 := fs.FileEpoch("f")
	fs.Delete("f")
	if got := fs.FileEpoch("f"); got != 0 {
		t.Fatalf("deleted file epoch = %d, want 0", got)
	}
	if err := fs.WriteFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	e2 := fs.FileEpoch("f")
	if e2 <= e1 {
		t.Fatalf("re-created file epoch %d not above prior %d", e2, e1)
	}

	// CreateOrReplace is the path queries race against: the replacement
	// must also land above every prior epoch.
	w, err := fs.CreateOrReplace("f")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord("z")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if e3 := fs.FileEpoch("f"); e3 <= e2 {
		t.Fatalf("replaced file epoch %d not above prior %d", e3, e2)
	}
}

// TestEpochHook: an installed hook fires exactly once per publication and
// once per delete — never while a generation is being built — with the
// name and the epoch FileEpoch reports from then on, and uninstalling
// (nil) stops delivery.
func TestEpochHook(t *testing.T) {
	fs := New(Config{BlockSize: 64})
	type ev struct {
		name  string
		epoch int64
	}
	var got []ev
	fs.SetEpochHook(func(name string, epoch int64) {
		got = append(got, ev{name, epoch})
	})
	expect := func(what string, n int) {
		t.Helper()
		if len(got) != n {
			t.Fatalf("%s: hook fired %d times in total, want %d", what, len(got), n)
		}
		if n == 0 {
			return
		}
		if e := got[n-1]; e.name != "f" || e.epoch != fs.FileEpoch("f") {
			t.Fatalf("%s: hook saw %+v, FileEpoch reports %d", what, e, fs.FileEpoch("f"))
		}
	}
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRecord("a")
	w.SetMaster([]byte("idx"))
	expect("building", 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	expect("create", 1)
	w, _ = fs.CreateOrReplace("f")
	w.WriteRecord("b")
	expect("building the replacement", 1)
	w.Close()
	w.Close() // idempotent: publishes once
	expect("replace", 2)
	if err := fs.CorruptBlock("f", 0); err != nil {
		t.Fatal(err)
	}
	expect("corrupt", 3)
	if got[2].epoch <= got[1].epoch || got[1].epoch <= got[0].epoch {
		t.Fatalf("publication epochs not strictly increasing: %+v", got)
	}
	fs.Delete("f")
	expect("delete", 4)
	fs.Delete("f") // nothing to delete, nothing to announce
	expect("delete of a missing file", 4)
	if w, _ := fs.Create("f"); w != nil {
		w.WriteRecord("abandoned")
	}
	expect("abandoned writer", 4)

	fs.SetEpochHook(nil)
	if err := fs.WriteFile("g", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatal("hook fired after being uninstalled")
	}
}
