package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format (0.0.4): backslash, double quote and newline only.
// Go's %q escaping diverges — it would also escape tabs, control bytes
// and non-ASCII runes into sequences the exposition parser rejects, so
// every other byte passes through literally.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// baseName strips a baked-in label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSet returns the baked-in label body ("k=\"v\",...") of a name, or "".
func labelSet(name string) string {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return ""
	}
	return strings.TrimSuffix(name[i+1:], "}")
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4). Every metric name is prefixed with prefix plus
// an underscore (pass "" for none). Counters map to counter series, gauges
// to gauge series, and histograms to the conventional _bucket (cumulative,
// with an +Inf bucket), _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	if prefix != "" && !strings.HasSuffix(prefix, "_") {
		prefix += "_"
	}
	snap := r.Snapshot()

	typed := make(map[string]string) // base name -> TYPE already written
	for _, name := range sortedKeys(snap.Counters) {
		if err := writeSeries(w, typed, prefix, name, "counter", snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		if err := writeSeries(w, typed, prefix, name, "gauge", snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		if err := writeHistogram(w, typed, prefix+name, snap.Histograms[name]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writeType(w io.Writer, typed map[string]string, full, kind string) error {
	if typed[full] == kind {
		return nil
	}
	typed[full] = kind
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", full, kind)
	return err
}

func writeSeries(w io.Writer, typed map[string]string, prefix, name, kind string, v int64) error {
	full := prefix + baseName(name)
	if err := writeType(w, typed, full, kind); err != nil {
		return err
	}
	if ls := labelSet(name); ls != "" {
		_, err := fmt.Fprintf(w, "%s{%s} %d\n", full, ls, v)
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", full, v)
	return err
}

// writeHistogram writes one histogram; histograms are scalar (the
// registry has no labeled histogram kind), so le is the only label.
func writeHistogram(w io.Writer, typed map[string]string, full string, h HistogramSnapshot) error {
	if err := writeType(w, typed, full, "histogram"); err != nil {
		return err
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", full, b, cum); err != nil {
			return err
		}
	}
	cum += h.Buckets[len(h.Buckets)-1]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n", full, cum, full, h.Sum, full, h.Count)
	return err
}
