package proto

import (
	"maps"
	"slices"
	"testing"

	"coormv2/internal/clock"
	"coormv2/internal/federation"
	"coormv2/internal/request"
	"coormv2/internal/rms"
	"coormv2/internal/sim"
	"coormv2/internal/view"
)

// viewsFrameSeeds are views frames as the transport puts them on the wire
// (full, delta, removal, empty delta, replay), plus frames a client must
// reject or survive.
var viewsFrameSeeds = []string{
	`{"type":"views","np_view":{"c0":[{"dur":-1,"n":16}]},"p_view":{"c0":[{"dur":-1,"n":16}]}}`,
	`{"type":"views","replay":true,"np_view":{"c00":[{"dur":2737,"n":41},{"dur":2337,"n":38},{"dur":-1,"n":0}],"c04":[{"dur":994,"n":24},{"dur":262,"n":28},{"dur":-1,"n":25}]},"p_view":{"c00":[{"dur":1772,"n":11},{"dur":-1,"n":61}]}}`,
	`{"type":"views","np_view":{"c04":[{"dur":30,"n":0},{"dur":-1,"n":25}]},"delta":true}`,
	`{"type":"views","np_view":{"c16":[{"dur":-1,"n":0}],"c17":[{"dur":-1,"n":0}]},"p_view":{"c16":[{"dur":-1,"n":0}]},"delta":true}`,
	`{"type":"views","delta":true}`,
	`{"type":"views"}`,
	`{"type":"views","np_view":{"c0":[{"dur":-2,"n":1}]}}`,
	`{"type":"views","np_view":{"c0":[{"dur":1e300,"n":3},{"dur":1,"n":4},{"dur":1,"n":5}]}}`,
	`{"type":"views","np_view":{"c0":[{"dur":1e308,"n":3},{"dur":1e308,"n":4},{"dur":5,"n":1}]}}`,
	`{"type":"views","np_view":{"c0":[{"dur":-1,"n":3},{"dur":5,"n":4}]}}`,
	`{"type":"views","np_view":{"c0":[],"":[{"dur":0,"n":9}],"c1":null}}`,
}

// FuzzViewsFrame feeds untrusted bytes through the client's views path:
// Unmarshal, then each view applied to an arbitrary base (a second frame's
// views, when they decode). Nothing may panic; a view that decodes must
// apply, leave its base alone, hold no zero profile, and survive the full
// re-encoding. The server's path runs too: the frame's clusters, named with
// what the view holds for them (zero for a removed one), are a segment
// patched onto a copy of the base, which must equal the base with the
// delta (EncodeViewAt at the names PatchView returns) applied, and the
// segment stays untouched. The names and the delta are written into the
// previous view's slices and map, as a wire session reuses its own, and
// must equal what fresh ones give.
func FuzzViewsFrame(f *testing.F) {
	for i, s := range viewsFrameSeeds {
		f.Add([]byte(s), []byte(viewsFrameSeeds[(i+1)%len(viewsFrameSeeds)]))
	}
	f.Add([]byte(viewsFrameSeeds[1]), []byte(viewsFrameSeeds[1])) // a segment that changes nothing
	f.Fuzz(func(t *testing.T, frame, baseFrame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return
		}
		bases := []view.View{nil, nil}
		if bm, err := Unmarshal(baseFrame); err == nil {
			bases[0], _ = bm.NonPreemptView.DecodeView()
			bases[1], _ = bm.PreemptView.DecodeView()
		}
		var prev ViewJSON              // the previous iteration's delta map
		var prevNames []view.ClusterID // its changed names
		var prevSteps []StepJSON       // and its steps
		for i, vj := range []ViewJSON{m.NonPreemptView, m.PreemptView} {
			base := bases[i]
			before := base.Clone()
			got, err := vj.Apply(base)
			if _, ferr := vj.DecodeView(); (ferr == nil) != (err == nil) {
				t.Fatalf("DecodeView says %v, Apply says %v", ferr, err)
			}
			if err != nil {
				continue
			}
			if len(base) != len(before) || !base.Equal(before) {
				t.Fatalf("Apply modified its base: %v, was %v", base, before)
			}
			for cid, fn := range got {
				if fn == nil || fn.IsZero() {
					t.Fatalf("zero profile for %q in %v", cid, got)
				}
			}
			if back, err := EncodeView(got).DecodeView(); err != nil || !back.Equal(got) || len(back) != len(got) {
				t.Fatalf("full round trip of %v gave %v, %v", got, back, err)
			}
			seg := view.New()
			for cid := range vj {
				seg[view.ClusterID(cid)] = got.Get(view.ClusterID(cid))
			}
			segBefore := seg.Clone()
			acc := base.Clone()
			names := PatchView(prevNames, acc, seg)
			delta, steps := EncodeViewAt(prev, prevSteps[:0], seg, names)
			fresh := base.Clone()
			freshNames := PatchView(nil, fresh, seg)
			slices.Sort(names) // a map's order
			slices.Sort(freshNames)
			if want, _ := EncodeViewAt(nil, nil, seg, freshNames); !maps.EqualFunc(delta, want, slices.Equal) || !fresh.Equal(acc) ||
				len(names) != len(delta) || !slices.Equal(names, freshNames) {
				t.Fatalf("segment %v patched onto %v: names %v, delta %v into the reused slice and map, %v, %v into fresh ones",
					seg, base, names, delta, freshNames, want)
			}
			prev, prevNames, prevSteps = delta, names, steps
			if back, err := delta.Apply(base); err != nil || !back.Equal(acc) || len(back) != len(acc) {
				t.Fatalf("segment %v patched onto %v gave %v, its delta %v applied %v, %v", seg, base, acc, delta, back, err)
			}
			for cid := range delta {
				if c := view.ClusterID(cid); base.Get(c).Equal(acc.Get(c)) {
					t.Fatalf("delta %v lists unchanged cluster %q", delta, cid)
				}
			}
			if !maps.Equal(seg, segBefore) {
				t.Fatalf("PatchView modified its segment: %v, was %v", seg, segBefore)
			}
		}
	})
}

// requestFrameSeeds are request frames as transport.Client sends them, plus
// frames the server must refuse or survive.
var requestFrameSeeds = []string{
	`{"type":"request","seq":1,"idem":1,"cluster":"c0","n":4,"duration":30,"req_type":"NP"}`,
	`{"type":"request","seq":2,"cluster":"c0","n":2,"duration":-1,"req_type":"P"}`,
	`{"type":"request","seq":3,"cluster":"c0","n":8,"duration":1e9,"req_type":"PA"}`,
	`{"type":"request","seq":4,"cluster":"c0","n":1,"duration":5,"req_type":"NP","related_how":"NEXT","related_to":1}`,
	`{"type":"request","seq":5,"cluster":"c0","n":1,"duration":5,"req_type":"NP","related_how":"COALLOC","related_to":-7}`,
	`{"type":"request","cluster":"","n":0,"duration":0,"req_type":"NP"}`,
	`{"type":"request","cluster":"nope","n":-3,"duration":1e308,"req_type":"NP"}`,
	`{"type":"request","cluster":"c0","n":9223372036854775807,"duration":1e-300,"req_type":"P"}`,
	`{"type":"request","cluster":"c0","n":1,"duration":1,"req_type":"??"}`,
	`{"type":"done","req_id":1}`,
}

// FuzzDecodeRequestSpec feeds untrusted bytes through the server's request
// path: Unmarshal, DecodeRequestSpec, then request() on a live RMS and the
// scheduling rounds it triggers. Nothing may panic; a spec that decodes must
// survive re-encoding, and whether the RMS admits or refuses it, its
// accounting must stay consistent.
func FuzzDecodeRequestSpec(f *testing.F) {
	for _, s := range requestFrameSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return
		}
		spec, err := m.DecodeRequestSpec()
		if err != nil {
			return
		}
		again := EncodeRequestSpec(spec, m.Seq)
		data, err := again.Marshal()
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", spec, err)
		}
		if m2, err := Unmarshal(data); err != nil {
			t.Fatalf("re-decoding %s: %v", data, err)
		} else if back, err := m2.DecodeRequestSpec(); err != nil || back != spec {
			t.Fatalf("round trip of %+v gave %+v, %v", spec, back, err)
		}

		e := sim.NewEngine()
		srv := federation.New(federation.Config{
			Clusters: map[view.ClusterID]int{"c0": 16}, ReschedInterval: 1, Clock: clock.SimClock{E: e},
		})
		sess := srv.Connect(quietApp{})
		// A parent the spec may relate to (related_to 1).
		if _, err := sess.Request(rms.RequestSpec{Cluster: "c0", N: 2, Duration: 10, Type: spec.Type}); err != nil {
			t.Fatal(err)
		}
		_, _ = sess.Request(spec)
		e.Run(100)
		if err := srv.CheckInvariants(); err != nil {
			t.Fatalf("after request %+v: %v", spec, err)
		}
	})
}

// quietApp discards every notification.
type quietApp struct{}

func (quietApp) OnViews(_, _ view.View)    {}
func (quietApp) OnStart(request.ID, []int) {}
func (quietApp) OnKill(string)             {}
