package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// chunkReader returns at most n bytes per Read, the way a socket hands a
// frame over in pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// fuzzStream expands the fuzz input into a byte stream: a byte ≥ 0xF0
// stands for a run of 8 KiB to 128 KiB (until the stream reaches 512 KiB),
// so lines longer than the reader's 64 KiB buffer — the skip-and-resync
// path — are within the fuzzer's reach.
func fuzzStream(data []byte) []byte {
	var out []byte
	for _, b := range data {
		if b >= 0xF0 && len(out) < 512<<10 {
			out = append(out, bytes.Repeat([]byte{'x'}, int(b-0xEF)*8192)...)
		} else {
			out = append(out, b)
		}
	}
	return out
}

// FuzzFrameReader runs the frame reader over arbitrary byte streams and
// frame caps and checks it against a split on newlines: every line within
// the cap comes back verbatim and in order, every line over it is reported
// once as an *OversizedFrameError and skipped, no returned line exceeds
// the cap, and an unterminated tail is an error, not a frame.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte("{\"type\":\"connect\"}\n{\"type\":\"ping\",\"seq\":7}\r\n"), 0, 7)
	f.Add([]byte("{\"type\":\"views\",\"delta\":true}\n\n\r\nxx"), 16, 1)
	f.Add([]byte("{\"type\":\"request\",\"pad\":\"\xF3\"}\n{\"type\":\"bye\"}\n"), 1024, 4096)
	f.Add([]byte("\xFF\xFF\xF0\r\nok\n\xF7"), 200000, 100000)
	f.Fuzz(func(t *testing.T, data []byte, limit, chunk int) {
		stream := fuzzStream(data)
		if floor := 1 + len(stream)/1024; chunk < floor {
			chunk = floor // at most ≈ 1,000 reads per run
		}
		fr := newFrameReader(chunkReader{bytes.NewReader(stream), chunk}, limit)
		if limit <= 0 {
			limit = DefaultMaxFrame
		}
		lines := bytes.Split(stream, []byte{'\n'})
		tail := lines[len(lines)-1]
		for i, raw := range lines[:len(lines)-1] {
			want := bytes.TrimSuffix(raw, []byte{'\r'})
			got, err := fr.next()
			var ofe *OversizedFrameError
			switch {
			case errors.As(err, &ofe):
				// The cap applies to the frame; a reader that has not seen
				// the line's end may count its carriage return.
				if len(raw) <= limit {
					t.Fatalf("line %d of %d bytes reported oversized at cap %d", i, len(raw), limit)
				}
				if ofe.Limit != limit || ofe.Size <= limit || ofe.Size > len(raw) {
					t.Fatalf("line %d of %d bytes: %+v at cap %d", i, len(raw), ofe, limit)
				}
			case err != nil:
				t.Fatalf("line %d: %v", i, err)
			case len(got) > limit:
				t.Fatalf("line %d: returned %d bytes past the cap %d", i, len(got), limit)
			case !bytes.Equal(got, want):
				t.Fatalf("line %d: out of sync: got %q, want %q", i, got, want)
			}
		}
		var ofe *OversizedFrameError
		if got, err := fr.next(); err == nil || errors.As(err, &ofe) {
			t.Fatalf("unterminated tail of %d bytes returned as (%q, %v)", len(tail), got, err)
		}
	})
}
