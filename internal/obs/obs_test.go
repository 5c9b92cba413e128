package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// oracle returns the nearest-rank quantile (rank ⌈q·n⌉) of a sorted
// slice — the same definition Histogram.Quantile implements.
func oracle(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// TestHistogramQuantileOracle drives the histogram against a
// sorted-slice oracle across seeds and distributions: every quantile
// must land within one sub-bucket (≤12.5% relative, so ≤6.25% from the
// midpoint estimate) of the exact nearest-rank value.
func TestHistogramQuantileOracle(t *testing.T) {
	distributions := map[string]func(*rand.Rand) float64{
		"uniform":     func(r *rand.Rand) float64 { return r.Float64() },
		"exponential": func(r *rand.Rand) float64 { return r.ExpFloat64() * 1e-3 },
		"logUniform":  func(r *rand.Rand) float64 { return math.Pow(10, -9+18*r.Float64()) },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 1e-6 + r.Float64()*1e-7
			}
			return 1.0 + r.Float64()*0.1
		},
	}
	quantiles := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, gen := range distributions {
		for seed := int64(1); seed <= 5; seed++ {
			r := rand.New(rand.NewSource(seed))
			h := &Histogram{}
			vals := make([]float64, 0, 10000)
			for i := 0; i < 10000; i++ {
				v := gen(r)
				vals = append(vals, v)
				h.Record(v)
			}
			sort.Float64s(vals)
			for _, q := range quantiles {
				want := oracle(vals, q)
				got := h.Quantile(q)
				tol := 0.07 * want
				if math.Abs(got-want) > tol {
					t.Errorf("%s seed=%d q=%v: got %v want %v (±%v)", name, seed, q, got, want, tol)
				}
			}
			if got := h.Quantile(1); got != vals[len(vals)-1] {
				t.Errorf("%s seed=%d: max not exact: got %v want %v", name, seed, got, vals[len(vals)-1])
			}
			if got := h.Quantile(0); got != vals[0] {
				t.Errorf("%s seed=%d: min not exact: got %v want %v", name, seed, got, vals[0])
			}
		}
	}
}

// TestHistogramEdgeValues: zero, negative (clamped), sub-underflow,
// overflow, NaN and +Inf must all keep the histogram well-formed.
func TestHistogramEdgeValues(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{0, -1, 1e-15, 1e15, math.NaN(), math.Inf(1), 1e-3} {
		h.Record(v)
	}
	st := h.Stat()
	if st.Count != 7 {
		t.Fatalf("count %d, want 7", st.Count)
	}
	if st.Min != 0 {
		t.Fatalf("min %v, want 0 (negative/NaN clamp)", st.Min)
	}
	if !math.IsInf(st.Max, 1) {
		t.Fatalf("max %v, want +Inf", st.Max)
	}
	if q := h.Quantile(0.5); q < 0 || math.IsNaN(q) {
		t.Fatalf("p50 %v not well-formed", q)
	}
}

// TestRingWraparound: a full ring overwrites oldest-first and keeps the
// global sequence numbering.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Add(Event{Type: EvRound, Time: float64(i)})
	}
	if r.Total() != 10 {
		t.Fatalf("total %d, want 10", r.Total())
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	for i, e := range ev {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq || e.Time != float64(wantSeq) {
			t.Fatalf("event %d: seq=%d t=%v, want seq=%d t=%v", i, e.Seq, e.Time, wantSeq, float64(wantSeq))
		}
	}
	// Partial fill keeps insertion order without wrapping artifacts.
	r2 := NewRing(8)
	r2.Add(Event{Type: EvCrash})
	r2.Add(Event{Type: EvRestart})
	ev2 := r2.Events()
	if len(ev2) != 2 || ev2[0].Type != EvCrash || ev2[1].Type != EvRestart {
		t.Fatalf("partial ring wrong: %+v", ev2)
	}
}

// TestRingOverwriteDuringSnapshot pins the ring at its bound: writers
// overrun a small ring many times over while readers snapshot it. Every
// snapshot is a run of consecutive sequence numbers, no longer than the
// capacity, whose last one is below the total read after it. Meaningful
// under -race.
func TestRingOverwriteDuringSnapshot(t *testing.T) {
	const capacity, writers, perWriter, readers = 16, 4, 3000, 2
	r := NewRing(capacity)
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for k := 0; k < readers; k++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev := r.Events()
				total := r.Total()
				if len(ev) > capacity {
					t.Errorf("snapshot holds %d events, capacity %d", len(ev), capacity)
					return
				}
				for i := 1; i < len(ev); i++ {
					if ev[i].Seq != ev[i-1].Seq+1 {
						t.Errorf("snapshot seq %d follows %d", ev[i].Seq, ev[i-1].Seq)
						return
					}
				}
				if n := len(ev); n > 0 && ev[n-1].Seq >= total {
					t.Errorf("snapshot ends at seq %d, total %d", ev[n-1].Seq, total)
					return
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Add(Event{Type: EvRound, App: w, Value: float64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	ev := r.Events()
	if total := r.Total(); total != writers*perWriter || len(ev) != capacity || ev[capacity-1].Seq != total-1 {
		t.Fatalf("after the writers: total %d, %d events ending at seq %d; want %d, %d ending at %d",
			total, len(ev), ev[len(ev)-1].Seq, writers*perWriter, capacity, writers*perWriter-1)
	}
}

// TestConcurrentRecording hammers one registry from many goroutines
// while snapshots are taken — meaningful under -race, and the final
// counts must still be exact.
func TestConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := reg.Hist("wait")
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(float64(i%100) * 1e-6)
				reg.Event(Event{Type: EvStart, App: w, Value: float64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snap := reg.Snapshot(float64(i))
			if _, err := snap.JSON(); err != nil {
				t.Errorf("snapshot json: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count %d, want %d", got, workers*perWorker)
	}
	if got := reg.Snapshot(0).EventsTotal; got != workers*perWorker {
		t.Fatalf("events_total %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotStableJSON: identical registry contents must marshal to
// identical bytes (map keys sorted by encoding/json) — the property the
// experiment determinism test builds on.
func TestSnapshotStableJSON(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		reg.RegisterCounters("sched", func() map[string]int64 {
			return map[string]int64{"rounds": 42, "full_rounds": 3}
		})
		reg.RegisterCounters("merge", func() map[string]int64 {
			return map[string]int64{"merges": 17}
		})
		for i := 0; i < 100; i++ {
			reg.Hist("wait_seconds").Record(float64(i) * 1e-4)
			reg.Hist("round_seconds").Record(float64(i%7) * 1e-6)
		}
		reg.Event(Event{Type: EvStart, Time: 1.5, App: 3, Value: 0.25})
		reg.Event(Event{Type: EvMigrate, Time: 2.5, Cluster: "c0", Value: 0.1})
		return reg
	}
	j1, err := build().Snapshot(10).JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot(10).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\nvs\n%s", j1, j2)
	}
}

// TestWritePrometheus checks the text exposition output parses line by
// line: every non-comment line is "name[{quantile}] value" with
// deterministic ordering.
func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCounters("sched", func() map[string]int64 { return map[string]int64{"rounds": 5} })
	for i := 1; i <= 1000; i++ {
		reg.Hist("rms.wait_seconds").Record(float64(i) * 1e-5)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot(3).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"coorm_sched_rounds 5",
		`coorm_rms_wait_seconds{quantile="0.99"}`,
		"coorm_rms_wait_seconds_count 1000",
		"coorm_events_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestNilDisabled: a nil registry and nil histogram must be inert —
// the "disabled" fast path every hot-path call site relies on.
func TestNilDisabled(t *testing.T) {
	var reg *Registry
	h := reg.Hist("anything")
	if h != nil {
		t.Fatal("nil registry returned a histogram")
	}
	h.Record(1.0) // must not panic
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram not inert")
	}
	reg.Event(Event{Type: EvRound})
	reg.RegisterCounters("x", func() map[string]int64 { return nil })
	snap := reg.Snapshot(1)
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 || snap.EventsTotal != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	if _, err := snap.JSON(); err != nil {
		t.Fatal(err)
	}
}
