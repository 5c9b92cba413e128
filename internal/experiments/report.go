package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"coormv2/internal/obs"
)

// Report is the single source of truth for one experiment's results: the
// text table and the JSON export are two renderings of the same struct, so
// they can never drift apart. Every entry of Experiments returns one;
// coorm-exp's `-report json` emits Report.JSON, the default Report.Text.
type Report struct {
	// Name identifies the experiment: its Experiments entry's Name.
	Name string `json:"name"`
	// Notes are free-form preamble lines (trace summary, topology).
	Notes []string `json:"notes,omitempty"`
	// Header and Rows are the result table, column-aligned with Header.
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Obs is the observability snapshot of one of the experiment's runs (the
	// baseline first row; for tenants the DRF run), where the experiment
	// collects one: latency histograms, counters, and the structured event
	// ring, encoded exactly as coormd's /debug/obs endpoint encodes them.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// Text renders the report as the classic gnuplot-friendly output: notes,
// then the aligned table.
func (r *Report) Text() string {
	var b strings.Builder
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	b.WriteString(formatTable(r.Header, r.Rows))
	return b.String()
}

// JSON renders the report as indented, key-sorted JSON (encoding/json
// sorts map keys, and every slice order here is deterministic), terminated
// by a newline.
func (r *Report) JSON() ([]byte, error) {
	js, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding report %q: %w", r.Name, err)
	}
	return append(js, '\n'), nil
}

// formatTable renders rows of columns as an aligned text table with a
// "# "-prefixed header, the format the paper's gnuplot scripts consume.
func formatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for _, r := range append([][]string{header}, rows...) {
		for i, c := range r {
			if i < len(width) {
				width[i] = max(width[i], len(c))
			}
		}
	}
	var b strings.Builder
	b.WriteString("# ")
	for i, h := range header {
		fmt.Fprintf(&b, "%-*s  ", width[i], h)
	}
	b.WriteString("\n")
	for _, r := range rows {
		b.WriteString("  ")
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", width[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}
