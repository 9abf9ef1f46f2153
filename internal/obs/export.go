package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// fmtFloat renders a float the same way everywhere (shortest
// round-trippable form), so dumps are byte-stable.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// promLabels renders {k="v",...} (empty string when unlabeled).
func promLabels(keys, vals []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteProm writes the registry's current state in the Prometheus text
// exposition format, families sorted by name: each instrument's cached
// last sample. It never calls an instrument's function, so exposition
// cannot race the engine.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.sortedFams() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, c := range f.children {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(f.keys, c.vals), fmtFloat(c.Value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSONL dumps every sampled series, one JSON object per line, in
// registration order. The JSON is built by hand with a fixed key
// order and fixed float formatting, so same-seed sim runs produce
// byte-identical files at any -parallel value. Points are
// [t_nanoseconds, value] pairs; non-finite values become null.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.fams {
		for _, c := range f.children {
			b.Reset()
			writeSeriesJSON(&b, f, c)
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeriesJSON(b *strings.Builder, f *Family, c *Polled) {
	b.WriteString(`{"name":`)
	b.WriteString(strconv.Quote(c.series.Name))
	b.WriteString(`,"family":`)
	b.WriteString(strconv.Quote(f.name))
	b.WriteString(`,"kind":"`)
	b.WriteString(f.kind.String())
	b.WriteString(`","labels":{`)
	for i, k := range f.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(k))
		b.WriteByte(':')
		b.WriteString(strconv.Quote(c.vals[i]))
	}
	b.WriteString(`},"points":[`)
	for i, p := range c.series.Points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		b.WriteString(strconv.FormatInt(int64(p.T), 10))
		b.WriteByte(',')
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			b.WriteString("null")
		} else {
			b.WriteString(fmtFloat(p.V))
		}
		b.WriteByte(']')
	}
	b.WriteString("]}\n")
}

// WriteCSV dumps every sampled point as series,t_ns,value rows (header
// first), series in registration order, points in time order within a
// series. Same determinism contract as WriteJSONL.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := io.WriteString(w, "series,t_ns,value\n"); err != nil {
		return err
	}
	var b strings.Builder
	for _, f := range r.fams {
		for _, c := range f.children {
			b.Reset()
			name := c.series.Name
			if strings.ContainsAny(name, ",\"\n") {
				name = `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
			}
			for _, p := range c.series.Points {
				b.WriteString(name)
				b.WriteByte(',')
				b.WriteString(strconv.FormatInt(int64(p.T), 10))
				b.WriteByte(',')
				if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
					b.WriteString("NaN")
				} else {
					b.WriteString(fmtFloat(p.V))
				}
				b.WriteByte('\n')
			}
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}
