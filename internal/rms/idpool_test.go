package rms

import (
	"errors"
	"strings"
	"testing"

	"coormv2/internal/request"
)

func TestIDPoolAllocLowestFirst(t *testing.T) {
	p := newIDPool(5)
	if p.available() != 5 {
		t.Fatalf("available = %d", p.available())
	}
	ids := p.alloc(3)
	want := []int{0, 1, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("alloc = %v, want %v", ids, want)
		}
	}
	if p.available() != 2 {
		t.Errorf("available after alloc = %d", p.available())
	}
}

func TestIDPoolFreeReuse(t *testing.T) {
	p := newIDPool(4)
	ids := p.alloc(4)
	if err := p.free([]int{ids[2], ids[0]}); err != nil {
		t.Fatalf("free: %v", err)
	}
	got := p.alloc(2)
	if got[0] != 0 || got[1] != 2 {
		t.Errorf("re-alloc = %v, want [0 2] (sorted)", got)
	}
}

func TestIDPoolAllocZero(t *testing.T) {
	p := newIDPool(3)
	if got := p.alloc(0); len(got) != 0 {
		t.Errorf("alloc(0) = %v", got)
	}
}

func TestIDPoolOverAllocPanics(t *testing.T) {
	p := newIDPool(2)
	defer func() {
		if recover() == nil {
			t.Error("over-alloc should panic")
		}
	}()
	p.alloc(3)
}

func TestIDPoolDoubleFreeErrors(t *testing.T) {
	p := newIDPool(2)
	ids := p.alloc(1)
	if err := p.free(ids); err != nil {
		t.Fatalf("first free: %v", err)
	}
	err := p.free(ids)
	if err == nil {
		t.Fatal("double free should error")
	}
	if !strings.Contains(err.Error(), "already free") {
		t.Errorf("double free error = %v", err)
	}
	if p.available() != 2 {
		t.Errorf("available after rejected free = %d, want 2", p.available())
	}
}

func TestIDPoolOutOfRangeFreeErrors(t *testing.T) {
	p := newIDPool(2)
	if err := p.free([]int{7}); err == nil {
		t.Error("out-of-range free should error")
	}
	if err := p.free([]int{-1}); err == nil {
		t.Error("negative free should error")
	}
}

func TestIDPoolBatchFreeIsAtomic(t *testing.T) {
	p := newIDPool(4)
	ids := p.alloc(3) // [0 1 2]
	// A batch with one bad ID must leave the pool untouched.
	if err := p.free([]int{ids[0], ids[1], 9}); err == nil {
		t.Fatal("batch with out-of-range ID should error")
	}
	if p.available() != 1 {
		t.Fatalf("available = %d after rejected batch, want 1", p.available())
	}
	// A batch naming the same ID twice is rejected as a whole.
	if err := p.free([]int{ids[0], ids[0]}); err == nil {
		t.Fatal("batch freeing an ID twice should error")
	}
	if p.available() != 1 {
		t.Fatalf("available = %d after rejected duplicate batch, want 1", p.available())
	}
	if err := p.free(ids); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

// A pool violation is never a panic. At the server boundary (done()) it is a
// structured error that leaves the request retryable; on an internal release
// path (here: teardown) the refused batch is counted in Stats.
func TestPoolViolationsAreCountedErrors(t *testing.T) {
	e, s := newTestServer(4)
	app := &testApp{}
	app.sess = connect(s, app)
	id, err := submit(app.sess, RequestSpec{Cluster: c0, N: 2, Duration: 100, Type: request.NonPreempt})
	if err != nil {
		t.Fatal(err)
	}
	e.Run(1)
	if len(app.starts) != 1 {
		t.Fatalf("starts = %v, want one", app.starts)
	}
	// Corrupt the accounting: the held IDs go back behind the request's back.
	if err := s.pools[c0].free(app.starts[0].ids); err != nil {
		t.Fatal(err)
	}
	var re *RequestError
	if err := app.sess.Done(id, nil); !errors.As(err, &re) || re.ID != id || re.Node != app.starts[0].ids[0] {
		t.Fatalf("done() over a double free = %v, want a RequestError naming request %d and node %d", err, id, app.starts[0].ids[0])
	}
	if got := s.Stats()["pool_violations"]; got != 0 {
		t.Fatalf("pool_violations = %d after a refused done(), want 0", got)
	}
	app.sess.Disconnect()
	if got := s.Stats()["pool_violations"]; got != 1 {
		t.Fatalf("pool_violations = %d after teardown over a double free, want 1", got)
	}
}

func TestIDPoolFailFreeNode(t *testing.T) {
	p := newIDPool(4)
	wasFree, err := p.fail(2)
	if err != nil {
		t.Fatalf("fail: %v", err)
	}
	if !wasFree {
		t.Error("node 2 was free, fail should report wasFree")
	}
	if p.available() != 3 || p.capacity() != 3 {
		t.Errorf("available = %d capacity = %d, want 3/3", p.available(), p.capacity())
	}
	if !p.isFailed(2) {
		t.Error("node 2 should be failed")
	}
	// The dead node is never handed out again.
	got := p.alloc(3)
	for _, id := range got {
		if id == 2 {
			t.Errorf("alloc handed out dead node 2: %v", got)
		}
	}
}

func TestIDPoolFailHeldNode(t *testing.T) {
	p := newIDPool(3)
	ids := p.alloc(2) // [0 1]
	wasFree, err := p.fail(ids[0])
	if err != nil {
		t.Fatalf("fail: %v", err)
	}
	if wasFree {
		t.Error("node 0 was held, fail should report !wasFree")
	}
	if p.capacity() != 2 {
		t.Errorf("capacity = %d, want 2", p.capacity())
	}
	// The holder must strip the dead ID; releasing it is a violation.
	if err := p.free([]int{ids[0]}); err == nil {
		t.Error("freeing a dead node should error")
	}
	// Accounting: 1 free + 1 held (survivor) + 1 failed == size 3.
	if p.available()+1+len(p.failed) != p.size {
		t.Errorf("accounting broken: %d free + 1 held + %d failed != %d",
			p.available(), len(p.failed), p.size)
	}
}

func TestIDPoolFailErrors(t *testing.T) {
	p := newIDPool(2)
	if _, err := p.fail(5); err == nil {
		t.Error("failing out-of-range node should error")
	}
	if _, err := p.fail(0); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if _, err := p.fail(0); err == nil {
		t.Error("failing a down node twice should error")
	}
}

func TestIDPoolRecover(t *testing.T) {
	p := newIDPool(3)
	if _, err := p.fail(1); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := p.recover(1); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if p.available() != 3 || p.capacity() != 3 {
		t.Errorf("available = %d capacity = %d after recover, want 3/3", p.available(), p.capacity())
	}
	if err := p.recover(1); err == nil {
		t.Error("recovering a working node should error")
	}
	// Recovered node is allocatable again, in sorted position.
	got := p.alloc(3)
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("alloc after recover = %v, want [0 1 2]", got)
	}
}

func TestIDPoolShrinkGrowCycle(t *testing.T) {
	p := newIDPool(8)
	held := p.alloc(4) // [0 1 2 3]
	// Fail a mix of free and held nodes.
	for _, id := range []int{1, 3, 5} {
		if _, err := p.fail(id); err != nil {
			t.Fatalf("fail(%d): %v", id, err)
		}
	}
	if p.capacity() != 5 {
		t.Fatalf("capacity = %d, want 5", p.capacity())
	}
	// Simulate the server stripping dead IDs from the holder.
	survivors := []int{held[0], held[2]} // 0, 2
	if err := p.free(survivors); err != nil {
		t.Fatalf("free survivors: %v", err)
	}
	// Free list is now {0,2} ∪ {4,6,7}: the original free IDs minus failed 5
	// plus the stripped survivors.
	if p.available() != 5 {
		t.Fatalf("available = %d, want 5", p.available())
	}
	for _, id := range []int{1, 3, 5} {
		if err := p.recover(id); err != nil {
			t.Fatalf("recover(%d): %v", id, err)
		}
	}
	if p.available() != 8 || p.capacity() != 8 {
		t.Errorf("available = %d capacity = %d after full recovery, want 8/8", p.available(), p.capacity())
	}
}
