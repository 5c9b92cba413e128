package proto

import (
	"testing"

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
// apply, leave its base alone, hold no zero profile, and survive both
// re-encodings — in full, and as the delta from that base.
func FuzzViewsFrame(f *testing.F) {
	for i, s := range viewsFrameSeeds {
		f.Add([]byte(s), []byte(viewsFrameSeeds[(i+1)%len(viewsFrameSeeds)]))
	}
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
			if back, err := EncodeViewDelta(base, got).Apply(base); err != nil || !back.Equal(got) || len(back) != len(got) {
				t.Fatalf("delta round trip of %v over %v gave %v, %v", got, base, back, err)
			}
		}
	})
}
