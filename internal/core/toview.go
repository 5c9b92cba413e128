package core

import (
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// toView implements Algorithm 1 (§A.4.1). It generates the view occupied by
// the *fixed* requests of the set: requests that have started, or that are
// constrained (via NEXT/COALLOC chains) to a fixed request and whose start
// time is therefore no longer the RMS's to choose.
//
// As a side effect it sets the ScheduledAt, NAlloc and Fixed attributes of
// the requests it visits and clears Fixed on all the others.
//
// If vi is non-nil the generated allocations are limited by the resources
// available in vi (used for preemptible requests, whose NAlloc may be
// smaller than N); otherwise NAlloc = N.
//
// The returned view may be nil when no request is fixed; a nil View is
// valid for every read operation.
func toView(rs *request.Set, vi view.View, now float64) view.View {
	return toViewScratch(rs, vi, now, &scratch{})
}

// toViewScratch is toView with caller-provided scratch buffers; the
// scheduler threads one scratch through all the rounds it runs.
func toViewScratch(rs *request.Set, vi view.View, now float64, sc *scratch) view.View {
	return toViewInto(nil, rs, vi, now, sc)
}

// toViewInto is toViewScratch generating the view into vo, an empty map
// the caller owns and reuses, and returning it; a nil vo gets a new map
// when a request is fixed.
func toViewInto(vo view.View, rs *request.Set, vi view.View, now float64, sc *scratch) view.View {
	// Initialization: clear the fixed flag of every request (Alg. 1 line 2).
	for _, r := range rs.All() {
		r.Fixed = false
	}

	q := &sc.q
	q.reset()

	// First, add started requests to the queue (lines 4–5).
	for _, r := range rs.All() {
		if r.Started() {
			q.push(r)
		}
	}

	// Next, process requests in the queue (lines 6–24). Each request is
	// enqueued at most once: started requests are enqueued above, and a
	// pending request is enqueued only by its single parent.
	for !q.empty() {
		r := q.pop()

		// Compute the start time this request is pinned to. A started
		// request is pinned to its actual start time regardless of its
		// constraint (its constraint was honoured when it was started);
		// a not-yet-started descendant derives its time from its parent.
		switch {
		case r.Started():
			r.ScheduledAt = r.StartedAt
		case r.RelatedHow == request.Next:
			r.ScheduledAt = r.RelatedTo.ScheduledAt + r.RelatedTo.Duration
		case r.RelatedHow == request.Coalloc:
			r.ScheduledAt = r.RelatedTo.ScheduledAt
		default:
			// A FREE, unstarted request cannot be fixed; skip it
			// (Alg. 1 line 16: "constraint not implemented" guard).
			continue
		}

		if vi == nil {
			r.NAlloc = r.N
		} else {
			t0, t1 := allocWindow(r, now)
			r.NAlloc = vi.Alloc(r.Cluster, r.N, t0, t1-t0)
		}
		r.Fixed = true
		if vo == nil {
			vo = view.New()
		}
		vo.MutAddRect(r.Cluster, r.ScheduledAt, r.Duration, r.NAlloc)

		// Enqueue pending children of this request (lines 23–24); started
		// children are already in the queue from the initialization pass.
		rs.EachChild(r, func(rc *request.Request) {
			if !rc.Started() {
				q.push(rc)
			}
		})
	}
	return vo
}
