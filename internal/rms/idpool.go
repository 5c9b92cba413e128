package rms

import (
	"fmt"
	"slices"
	"sort"
)

// poolError reports a node-ID pool accounting violation. The server boundary
// converts it into a *RequestError quoting the offending request.
type poolError struct {
	node   int
	reason string // completes "released node %d %s request %d"
}

func (e *poolError) Error() string {
	return fmt.Sprintf("idPool: node %d %s", e.node, e.reason)
}

// idPool hands out node IDs for one cluster. IDs are integers 0..size-1;
// allocation returns the lowest free IDs, which keeps simulated traces
// stable and readable.
//
// Node-level fault injection partitions the ID space three ways: free IDs
// (allocatable), held IDs (owned by started requests; tracked by the
// requests themselves), and failed IDs (machines that are down). The
// accounting invariant, checked by Server.CheckInvariants, is
//
//	len(freeIDs) + held + len(failed) == size
//
// i.e. the pool's effective capacity is size − len(failed).
type idPool struct {
	freeIDs []int // sorted ascending
	failed  []int // sorted ascending; node IDs currently down
	size    int
}

func newIDPool(n int) *idPool {
	p := &idPool{size: n, freeIDs: make([]int, n)}
	for i := range p.freeIDs {
		p.freeIDs[i] = i
	}
	return p
}

// available returns the number of free (allocatable) node IDs.
func (p *idPool) available() int { return len(p.freeIDs) }

// capacity returns the number of working nodes: size minus failed nodes.
func (p *idPool) capacity() int { return p.size - len(p.failed) }

// failedIDs returns the failed node IDs in ascending order (a copy).
func (p *idPool) failedIDs() []int {
	if len(p.failed) == 0 {
		return nil
	}
	return append([]int(nil), p.failed...)
}

// isFailed reports whether node id is currently down.
func (p *idPool) isFailed(id int) bool {
	i := sort.SearchInts(p.failed, id)
	return i < len(p.failed) && p.failed[i] == id
}

// isFree reports whether node id is currently in the free list.
func (p *idPool) isFree(id int) bool {
	i := sort.SearchInts(p.freeIDs, id)
	return i < len(p.freeIDs) && p.freeIDs[i] == id
}

// alloc removes and returns the k lowest free IDs. It panics if k exceeds
// availability: callers must check available() first (the RMS defers starts
// instead of over-allocating).
func (p *idPool) alloc(k int) []int {
	if k < 0 || k > len(p.freeIDs) {
		panic(fmt.Sprintf("idPool: alloc(%d) with %d available", k, len(p.freeIDs)))
	}
	out := append([]int(nil), p.freeIDs[:k]...)
	p.freeIDs = append(p.freeIDs[:0], p.freeIDs[k:]...)
	return out
}

// free returns IDs to the pool. Freeing an ID twice, an out-of-range ID, or
// a failed (down) ID indicates RMS state corruption; free validates the
// whole batch before mutating anything, so on error the pool is unchanged
// and the operation can be rejected at the server boundary as a
// *RequestError.
func (p *idPool) free(ids []int) error {
	for i, id := range ids {
		switch {
		case id < 0 || id >= p.size:
			return &poolError{node: id, reason: "is out of range for"}
		case p.isFree(id):
			return &poolError{node: id, reason: "was already free when released by"}
		case p.isFailed(id):
			return &poolError{node: id, reason: "is down and cannot be released by"}
		case slices.Contains(ids[:i], id):
			return &poolError{node: id, reason: "was released twice by"}
		}
	}
	for _, id := range ids {
		i := sort.SearchInts(p.freeIDs, id)
		p.freeIDs = append(p.freeIDs, 0)
		copy(p.freeIDs[i+1:], p.freeIDs[i:])
		p.freeIDs[i] = id
	}
	return nil
}

// fail marks node id as down. It reports whether the node was free (and has
// been removed from the free list); a non-free, non-failed node is held by
// some request and the caller must strip it from the holder — the ID is
// accounted to the failed set either way. Failing an out-of-range or
// already-failed node returns an error and leaves the pool unchanged.
func (p *idPool) fail(id int) (wasFree bool, err error) {
	if id < 0 || id >= p.size {
		return false, &poolError{node: id, reason: "is out of range for"}
	}
	if p.isFailed(id) {
		return false, &poolError{node: id, reason: "is already down for"}
	}
	if i := sort.SearchInts(p.freeIDs, id); i < len(p.freeIDs) && p.freeIDs[i] == id {
		p.freeIDs = append(p.freeIDs[:i], p.freeIDs[i+1:]...)
		wasFree = true
	}
	i := sort.SearchInts(p.failed, id)
	p.failed = append(p.failed, 0)
	copy(p.failed[i+1:], p.failed[i:])
	p.failed[i] = id
	return wasFree, nil
}

// recover marks a failed node as working again and returns its ID to the
// free list. Recovering a node that is not down returns an error and leaves
// the pool unchanged.
func (p *idPool) recover(id int) error {
	i := sort.SearchInts(p.failed, id)
	if i >= len(p.failed) || p.failed[i] != id {
		return &poolError{node: id, reason: "is not down; cannot recover for"}
	}
	p.failed = append(p.failed[:i], p.failed[i+1:]...)
	j := sort.SearchInts(p.freeIDs, id)
	p.freeIDs = append(p.freeIDs, 0)
	copy(p.freeIDs[j+1:], p.freeIDs[j:])
	p.freeIDs[j] = id
	return nil
}
