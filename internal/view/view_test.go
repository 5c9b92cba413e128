package view

import (
	"math"
	"math/rand"
	"testing"

	"coormv2/internal/stepfunc"
)

func TestGetMissingIsZero(t *testing.T) {
	v := New()
	if !v.Get("a").IsZero() {
		t.Error("missing cluster should be zero profile")
	}
}

func TestConstant(t *testing.T) {
	v := Constant(8, "a", "b")
	if v.Get("a").Value(0) != 8 || v.Get("b").Value(1e9) != 8 {
		t.Error("Constant view wrong")
	}
	if !v.Get("c").IsZero() {
		t.Error("unlisted cluster should be zero")
	}
}

func TestClusters(t *testing.T) {
	v := Constant(1, "zeta", "alpha", "mid")
	got := v.Clusters()
	want := []ClusterID{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Clusters = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Clusters = %v, want %v", got, want)
		}
	}
}

func TestAddSub(t *testing.T) {
	a := Constant(4, "x")
	b := New().AddRect("x", 10, 20, 3).AddRect("y", 0, 5, 2)
	sum := a.Add(b)
	if sum.Get("x").Value(15) != 7 || sum.Get("x").Value(5) != 4 || sum.Get("y").Value(1) != 2 {
		t.Errorf("Add wrong: %v", sum)
	}
	diff := sum.Sub(b)
	if !diff.Equal(a) {
		t.Errorf("(a+b)-b != a: %v", diff)
	}
}

func TestClip(t *testing.T) {
	full := Constant(100, "x")
	limit := Constant(10, "x")
	clipped := full.Clip(limit)
	if clipped.Get("x").Value(50) != 10 {
		t.Errorf("Clip wrong: %v", clipped)
	}
	// Clipping against a missing cluster zeroes it.
	if !full.Clip(New()).Get("x").IsZero() {
		t.Error("clip against empty should zero")
	}
}

func TestClampMin(t *testing.T) {
	v := Constant(5, "x").Sub(Constant(9, "x")) // -4 on x
	c := v.ClampMin(0)
	if !c.Get("x").IsZero() {
		t.Errorf("ClampMin(0) = %v", c)
	}
}

func TestAlloc(t *testing.T) {
	v := New().AddRect("x", 0, 100, 6).AddRect("x", 50, 100, -2) // 6 then 4
	if got := v.Alloc("x", 10, 0, 40); got != 6 {
		t.Errorf("Alloc capped by profile = %d, want 6", got)
	}
	if got := v.Alloc("x", 3, 0, 40); got != 3 {
		t.Errorf("Alloc capped by want = %d, want 3", got)
	}
	if got := v.Alloc("x", 10, 40, 40); got != 4 {
		t.Errorf("Alloc crossing drop = %d, want 4", got)
	}
	if got := v.Alloc("x", 10, 200, 10); got != 0 {
		t.Errorf("Alloc beyond profile = %d, want 0", got)
	}
	if got := v.Alloc("x", 0, 0, 10); got != 0 {
		t.Errorf("Alloc want=0 = %d", got)
	}
	neg := New().AddRect("x", 0, 10, -5)
	if got := neg.Alloc("x", 3, 0, 5); got != 0 {
		t.Errorf("Alloc on negative profile = %d, want 0", got)
	}
}

func TestFindHole(t *testing.T) {
	v := New().AddRect("x", 100, 50, 8)
	if got := v.FindHole("x", 8, 50, 0); got != 100 {
		t.Errorf("FindHole = %v, want 100", got)
	}
	if got := v.FindHole("x", 9, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("FindHole infeasible = %v", got)
	}
	if got := v.FindHole("nosuch", 1, 1, 0); !math.IsInf(got, 1) {
		t.Errorf("FindHole on missing cluster = %v", got)
	}
}

func TestEqual(t *testing.T) {
	a := Constant(4, "x")
	b := Constant(4, "x")
	if !a.Equal(b) {
		t.Error("identical views not equal")
	}
	c := Constant(4, "x").AddRect("y", 0, 1, 1)
	if a.Equal(c) || c.Equal(a) {
		t.Error("views with extra cluster should differ")
	}
	// A zero-profile entry is the same as a missing entry.
	d := a.Clone()
	d["z"] = stepfunc.Zero()
	if !a.Equal(d) || !d.Equal(a) {
		t.Error("explicit zero profile should equal missing entry")
	}
}

// TestStoreSemantics pins the setters: Set keeps a view canonical (a zero
// profile drops the cluster), while Put, CopyInto and Constant(0, ...) name
// a cluster as given, a zero included, which is how a segment says a
// cluster went empty.
func TestStoreSemantics(t *testing.T) {
	four, zero := stepfunc.Constant(4), stepfunc.Zero()
	for _, tc := range []struct {
		name  string
		store func(View)
		named bool // whether x is named afterwards
		want  *stepfunc.StepFunc
		len   int
	}{
		{"Set profile", func(v View) { v.Set("x", four) }, true, four, 2},
		{"Set zero drops the cluster", func(v View) { v.Set("x", zero) }, false, zero, 1},
		{"Set zero on a missing cluster", func(v View) { v.Set("z", zero) }, true, stepfunc.Constant(2), 2},
		{"Put profile", func(v View) { v.Put("x", four) }, true, four, 2},
		{"Put zero keeps the name", func(v View) { v.Put("x", zero) }, true, zero, 2},
		{"Clear", func(v View) { v.Clear() }, false, zero, 0},
		{"CopyInto keeps a named zero", func(v View) { Constant(0, "x").CopyInto(v) }, true, zero, 2},
		{"MutAddRect to zero drops the cluster", func(v View) { v.MutAddRect("x", 0, math.Inf(1), -2) }, false, zero, 1},
	} {
		v := Constant(2, "x", "y")
		tc.store(v)
		f, named := v.Lookup("x")
		if named != tc.named || named && !f.Equal(tc.want) || !v.Get("x").Equal(tc.want) || v.Len() != tc.len {
			t.Errorf("%s: x = %v (named %v), Len %d; want %v (named %v), Len %d",
				tc.name, f, named, v.Len(), tc.want, tc.named, tc.len)
		}
	}
}

// TestKeyIsIdentity pins Key and Same: one view, one key; a clone, or any
// other view of equal value, another; nil is 0.
func TestKeyIsIdentity(t *testing.T) {
	v := Constant(1, "x")
	if w := v; w.Key() != v.Key() || !Same(w, v) {
		t.Error("a view's copies should share its key")
	}
	if c := v.Clone(); c.Key() == v.Key() || Same(c, v) || !c.Equal(v) {
		t.Error("a clone should be equal but not the same view")
	}
	var nilView View
	if nilView.Key() != 0 || !Same(nilView, nil) || Same(nilView, New()) {
		t.Error("a nil view's key should be 0 and differ from an empty view's")
	}
}

func TestNonNegative(t *testing.T) {
	if !Constant(3, "x").NonNegative() {
		t.Error("positive view reported negative")
	}
	if New().AddRect("x", 0, 5, -1).NonNegative() {
		t.Error("negative view reported non-negative")
	}
}

func TestString(t *testing.T) {
	v := New().AddRect("a", 0, 3600, 4)
	got := v.String()
	want := "{a: [(3600, 4) (inf, 0)]}"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Constant(4, "x")
	b := a.Clone()
	b = b.AddRect("x", 0, 10, 1)
	if a.Get("x").Value(5) != 4 {
		t.Error("mutating clone affected original")
	}
}

func TestTrimBefore(t *testing.T) {
	v := New().AddRect("x", 0, 100, 8).AddRect("x", 100, 100, 3).AddRect("y", 0, 50, 2)
	tr := v.TrimBefore(150)
	if got := tr.Get("x").Value(0); got != 3 {
		t.Errorf("history of x should be flattened to 3, got %d", got)
	}
	if got := tr.Get("x").Value(150); got != 3 {
		t.Errorf("future of x changed: %d", got)
	}
	// y is zero from t=50 on, so trimming at 150 erases it entirely.
	if !tr.Get("y").IsZero() {
		t.Errorf("y should vanish after trim: %v", tr.Get("y"))
	}
	// Values at/after the trim point never change.
	for _, tt := range []float64{150, 180, 250, 1e6} {
		if v.Get("x").Value(tt) != tr.Get("x").Value(tt) {
			t.Fatalf("TrimBefore altered the future at t=%v", tt)
		}
	}
}

func TestPropViewAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	randView := func() View {
		v := New()
		for k := 0; k < r.Intn(4); k++ {
			cid := ClusterID([]string{"a", "b", "c"}[r.Intn(3)])
			v = v.AddRect(cid, float64(r.Intn(40)), float64(1+r.Intn(30)), r.Intn(7)-1)
		}
		return v
	}
	for i := 0; i < 200; i++ {
		a, b := randView(), randView()
		if !a.Add(b).Equal(b.Add(a)) {
			t.Fatal("view Add not commutative")
		}
		if !a.Add(b).Sub(b).Equal(a) {
			t.Fatal("view Sub not inverse of Add")
		}
	}
}
