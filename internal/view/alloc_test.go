package view

import (
	"math/rand"
	"testing"

	"coormv2/internal/stepfunc"
)

func randViewProfile(r *rand.Rand) *stepfunc.StepFunc {
	k := r.Intn(5)
	steps := make([]stepfunc.Step, 0, k)
	for i := 0; i < k; i++ {
		steps = append(steps, stepfunc.Step{Duration: float64(1 + r.Intn(100)), N: r.Intn(9) - 2})
	}
	return stepfunc.FromSteps(steps...)
}

func randView(r *rand.Rand, cids []ClusterID) View {
	v := New()
	for _, cid := range cids {
		if r.Intn(3) == 0 {
			continue
		}
		if f := randViewProfile(r); !f.IsZero() {
			v[cid] = f
		}
	}
	return v
}

// TestDifferentialMutOps checks the mutable-accumulator mode against the
// immutable operations on randomized views.
func TestDifferentialMutOps(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	cids := []ClusterID{"a", "b", "c"}
	for iter := 0; iter < 2000; iter++ {
		v, o := randView(r, cids), randView(r, cids)

		acc := v.Clone()
		acc.MutAdd(o)
		if want := v.Add(o); !acc.Equal(want) {
			t.Fatalf("iter %d: MutAdd: got %v want %v", iter, acc, want)
		}

		acc = v.Clone()
		acc.MutSub(o)
		if want := v.Sub(o); !acc.Equal(want) {
			t.Fatalf("iter %d: MutSub: got %v want %v", iter, acc, want)
		}

		lo := r.Intn(5) - 2
		acc = v.Clone()
		acc.MutClampMin(lo)
		if want := v.ClampMin(lo); !acc.Equal(want) {
			t.Fatalf("iter %d: MutClampMin(%d): got %v want %v", iter, lo, acc, want)
		}

		cid := cids[r.Intn(len(cids))]
		t0 := float64(r.Intn(200))
		dur := float64(1 + r.Intn(200))
		n := r.Intn(9) - 4
		acc = v.Clone()
		acc.MutAddRect(cid, t0, dur, n)
		if want := v.AddRect(cid, t0, dur, n); !acc.Equal(want) {
			t.Fatalf("iter %d: MutAddRect: got %v want %v", iter, acc, want)
		}

		// Sum against a fold of Adds.
		vs := []View{v, o, randView(r, cids)}
		want := New()
		for _, w := range vs {
			want = want.Add(w)
		}
		if got := Sum(vs...); !got.Equal(want) {
			t.Fatalf("iter %d: Sum: got %v want %v", iter, got, want)
		}
	}
}

// TestMutOpsDoNotMutateProfiles verifies the package contract: Mut*
// operations replace map entries but never modify a profile in place, so
// profiles may be shared freely between views.
func TestMutOpsDoNotMutateProfiles(t *testing.T) {
	f := stepfunc.FromSteps(stepfunc.Step{Duration: 100, N: 4})
	snapshot := f.Clone()
	v := View{"a": f}
	o := View{"a": stepfunc.Constant(2)}
	v.MutAdd(o)
	v.MutSub(o)
	v.MutAddRect("a", 10, 20, 3)
	v.MutClampMin(1)
	if !f.Equal(snapshot) {
		t.Fatalf("profile mutated in place: %v != %v", f, snapshot)
	}
}

// TestAllocsViewOps is the allocation regression guard for the view layer.
func TestAllocsViewOps(t *testing.T) {
	f := stepfunc.FromSteps(stepfunc.Step{Duration: 3600, N: 4}, stepfunc.Step{Duration: 3600, N: 3})
	g := stepfunc.FromSteps(stepfunc.Step{Duration: 1200, N: 2}, stepfunc.Step{Duration: 4000, N: 5})
	v := View{"a": f}
	o := View{"a": g}

	// Immutable AddRect clones the map: one map + profile result.
	got := testing.AllocsPerRun(200, func() {
		if v.AddRect("a", 600, 5000, 3) == nil {
			t.Fatal("nil view")
		}
	})
	if got > 5 {
		t.Errorf("View.AddRect: %v allocs/op, want <= 5", got)
	}

	// The mutable accumulator pays only for the fresh profile.
	acc := v.Clone()
	got = testing.AllocsPerRun(200, func() {
		acc.MutAddRect("a", 600, 5000, 3)
	})
	if got > 2 {
		t.Errorf("View.MutAddRect: %v allocs/op, want <= 2", got)
	}

	acc2 := v.Clone()
	got = testing.AllocsPerRun(200, func() {
		acc2.MutSub(o)
	})
	if got > 2 {
		t.Errorf("View.MutSub: %v allocs/op, want <= 2", got)
	}

	// Identity fast paths return the receiver untouched.
	got = testing.AllocsPerRun(200, func() {
		if w := v.ClampMin(0); len(w) != 1 {
			t.Fatal("unexpected clamp result")
		}
	})
	if got != 0 {
		t.Errorf("View.ClampMin no-op: %v allocs/op, want 0", got)
	}
	got = testing.AllocsPerRun(200, func() {
		if w := v.TrimBefore(0); len(w) != 1 {
			t.Fatal("unexpected trim result")
		}
	})
	if got != 0 {
		t.Errorf("View.TrimBefore no-op: %v allocs/op, want 0", got)
	}
}

// TestCombineSizesForLargerOperand pins combine's map hint: the sum of two
// views naming the same 8 clusters is an 8-entry map, which go1.24 builds
// in 2 allocations with a hint of at most 8 and in 4 with the hint 16 that
// the sum of the operands' sizes gives. The second operand's profiles are
// zero, so Add hands back the first's and the map is all that allocates.
func TestCombineSizesForLargerOperand(t *testing.T) {
	a, b := New(), New()
	for i := range 8 {
		cid := ClusterID(rune('a' + i))
		a[cid], b[cid] = stepfunc.Constant(i+1), stepfunc.Zero()
	}
	var sum View
	got := testing.AllocsPerRun(200, func() { sum = a.Add(b) })
	if !sum.Equal(a) || len(sum) != 8 {
		t.Fatalf("a + 0 = %v, want %v", sum, a)
	}
	if got > 2 {
		t.Errorf("View.Add of two 8-cluster views: %v allocs/op, want <= 2 (one small map)", got)
	}
}
