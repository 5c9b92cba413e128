package transport

import (
	"bufio"
	"fmt"
	"io"
)

// DefaultMaxFrame is the frame-size limit applied when Options.MaxFrame
// (client) or Server.MaxFrame is zero: 4 MiB, enough for the largest
// federated view push at paper scale.
const DefaultMaxFrame = 4 << 20

// OversizedFrameError reports a newline-delimited frame that exceeded the
// configured size limit. Size is the number of bytes observed before the
// reader gave up — at least Limit+1, and the exact frame size when the
// whole line was seen.
type OversizedFrameError struct {
	Size  int // bytes observed (>= Limit+1)
	Limit int // configured cap
}

func (e *OversizedFrameError) Error() string {
	return fmt.Sprintf("transport: frame of %d bytes exceeds the %d-byte limit", e.Size, e.Limit)
}

// frameReader reads newline-delimited frames with a hard per-frame size
// cap. Unlike bufio.Scanner it reports an oversized frame as a structured
// *OversizedFrameError carrying the offending size, and it can skip the
// remainder of the oversized line so the stream stays in sync and the
// connection survives.
type frameReader struct {
	r     *bufio.Reader
	limit int
	buf   []byte
}

func newFrameReader(r io.Reader, limit int) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 64*1024), limit: positiveOr(limit, DefaultMaxFrame)}
}

// next returns the next frame without its trailing newline. On an
// oversized frame it discards the rest of the line and returns an
// *OversizedFrameError; the reader remains usable. Any other error is a
// connection error.
func (fr *frameReader) next() ([]byte, error) {
	fr.buf = fr.buf[:0]
	for {
		chunk, err := fr.r.ReadSlice('\n')
		fr.buf = append(fr.buf, chunk...)
		if err == bufio.ErrBufferFull {
			if len(fr.buf) > fr.limit {
				// Drain the rest of the oversized line, still counting, so
				// the next frame starts clean.
				size := len(fr.buf)
				for {
					c, derr := fr.r.ReadSlice('\n')
					size += len(c)
					if derr == nil {
						break
					}
					if derr != bufio.ErrBufferFull {
						return nil, derr
					}
				}
				return nil, &OversizedFrameError{Size: size - 1, Limit: fr.limit}
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		// Strip the newline (and a possible carriage return).
		line := fr.buf[:len(fr.buf)-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > fr.limit {
			return nil, &OversizedFrameError{Size: len(line), Limit: fr.limit}
		}
		return line, nil
	}
}
