package disksim

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestWriteReadFree(t *testing.T) {
	d := New(Config{})
	id, err := d.Write([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(id)
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("read = %q, %v", got, err)
	}
	if d.Used() != 5 {
		t.Errorf("used = %d", d.Used())
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Errorf("used after free = %d", d.Used())
	}
	if _, err := d.Read(id); err != ErrNoBlock {
		t.Errorf("read freed block: %v", err)
	}
}

func TestReadRange(t *testing.T) {
	d := New(Config{})
	id, _ := d.Write([]byte("0123456789"))
	got, err := d.ReadRange(id, 3, 4)
	if err != nil || string(got) != "3456" {
		t.Fatalf("range = %q, %v", got, err)
	}
	if _, err := d.ReadRange(id, 8, 5); err == nil {
		t.Error("out-of-range read succeeded")
	}
}

func TestRewrite(t *testing.T) {
	d := New(Config{})
	id, _ := d.Write([]byte("aa"))
	if err := d.Rewrite(id, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 4 {
		t.Errorf("used = %d, want 4", d.Used())
	}
	got, _ := d.Read(id)
	if string(got) != "bbbb" {
		t.Errorf("read = %q", got)
	}
	if err := d.Rewrite(999, nil); err != ErrNoBlock {
		t.Errorf("rewrite missing: %v", err)
	}
}

func TestCapacityLimit(t *testing.T) {
	d := New(Config{Capacity: 10})
	if _, err := d.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(make([]byte, 8)); err != ErrCapacity {
		t.Errorf("over-capacity write: %v", err)
	}
}

func TestLatencyCharged(t *testing.T) {
	d := New(Config{SeekLatency: 2 * time.Millisecond})
	start := time.Now()
	if _, err := d.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("write took %v, expected >= 2ms seek charge", elapsed)
	}
}

func TestCounters(t *testing.T) {
	d := New(Config{})
	id, _ := d.Write([]byte("x"))
	_, _ = d.Read(id)
	_, _ = d.Read(id)
	r, w := d.Counters()
	if r != 2 || w != 1 {
		t.Errorf("counters = %d reads %d writes", r, w)
	}
}

// TestReadViewsOutliveTheirBlock: Read and ReadRange hand out views of the
// stored bytes, not copies, so a view must keep what it showed after its
// block is rewritten or freed.
func TestReadViewsOutliveTheirBlock(t *testing.T) {
	d := New(Config{})
	id, _ := d.Write([]byte("0123456789"))
	whole, err := d.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	part, err := d.ReadRange(id, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Rewrite(id, []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	if string(whole) != "0123456789" || string(part) != "234" {
		t.Fatalf("after Rewrite: views read %q and %q", whole, part)
	}
	if got, _ := d.Read(id); string(got) != "abcdefghij" {
		t.Fatalf("read after Rewrite = %q", got)
	}
	next, _ := d.Read(id)
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if string(next) != "abcdefghij" || string(whole) != "0123456789" {
		t.Fatalf("after Free: views read %q and %q", next, whole)
	}
	// A view's capacity ends at its length: appending to it must not write
	// into the bytes behind it.
	id2, _ := d.Write([]byte("xyz"))
	head, _ := d.ReadRange(id2, 0, 1)
	_ = append(head, '!')
	if got, _ := d.Read(id2); string(got) != "xyz" {
		t.Fatalf("append to a view changed the block: %q", got)
	}
}

// TestWriteCopiesCallerBytes: the device keeps its own copy of what is
// written, so the caller may reuse its slice.
func TestWriteCopiesCallerBytes(t *testing.T) {
	d := New(Config{})
	buf := []byte("hello")
	id, _ := d.Write(buf)
	copy(buf, "HELLO")
	if got, _ := d.Read(id); string(got) != "hello" {
		t.Fatalf("Write kept the caller's slice: read %q", got)
	}
	copy(buf, "world")
	if err := d.Rewrite(id, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "WORLD")
	if got, _ := d.Read(id); string(got) != "world" {
		t.Fatalf("Rewrite kept the caller's slice: read %q", got)
	}
}

// TestConcurrentReadViews: readers sharing views of one block while it is
// rewritten see one whole version or the other, never a mix.
func TestConcurrentReadViews(t *testing.T) {
	d := New(Config{})
	a, b := bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 64)
	id, _ := d.Write(a)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				whole, err := d.Read(id)
				if err != nil {
					t.Error(err)
					return
				}
				part, err := d.ReadRange(id, 8, 16)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(whole, a) && !bytes.Equal(whole, b) {
					t.Errorf("Read saw a mixed block %q", whole)
					return
				}
				if !bytes.Equal(part, a[8:24]) && !bytes.Equal(part, b[8:24]) {
					t.Errorf("ReadRange saw a mixed range %q", part)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		if err := d.Rewrite(id, next); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}
