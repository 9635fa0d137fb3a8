package obs

import (
	"strings"
	"sync"
)

// DefaultMaxSeries bounds the number of distinct label-value series a
// vector will materialize. The cap exists because label values on the
// serving path come from the wire (tenant names, session ids): an
// unbounded vector is a memory-growth and scrape-size vulnerability. A
// With call past the cap lands on the vector's overflow series, whose
// every label value is the literal "other", so totals stay conserved
// and the scrape stays bounded no matter how hostile the input.
const DefaultMaxSeries = 256

// overflowValue is the label value of every key on an overflow series.
const overflowValue = "other"

// seriesKeySep joins label values into a map key. 0x1f (ASCII unit
// separator) cannot appear in sane label values.
const seriesKeySep = "\x1f"

// interner is the one cardinality-capped table of the package: it hands
// out one zero-initialized *V per key until limit keys exist, and from
// then on one shared overflow value for every new key — so whatever the
// values accumulate stays conserved while the table stays bounded. The
// metric vectors, the ledger's scopes and its hot-predicate table are
// all this type; the cap is fixed at construction.
type interner[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]*V
	limit int
	other *V
}

func newInterner[K comparable, V any](limit int) interner[K, V] {
	return interner[K, V]{m: make(map[K]*V), limit: limit}
}

// get returns the value interned for k, creating it below the cap. A
// new key past the cap — or any key with ok false, the caller's "this
// key is malformed" — gets the overflow value. The hit path is one
// mutex and one map lookup.
func (in *interner[K, V]) get(k K, ok bool) *V {
	in.mu.Lock()
	defer in.mu.Unlock()
	if ok {
		if v, hit := in.m[k]; hit {
			return v
		}
		if len(in.m) < in.limit {
			v := new(V)
			in.m[k] = v
			return v
		}
	}
	if in.other == nil {
		in.other = new(V)
	}
	return in.other
}

// each calls fn for every interned value in map order, then for the
// overflow value (zero key, overflow true) if anything ever landed on
// it. fn runs under the table lock and must not call back into it.
func (in *interner[K, V]) each(fn func(k K, v *V, overflow bool)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for k, v := range in.m {
		fn(k, v, false)
	}
	if in.other != nil {
		var zero K
		fn(zero, in.other, true)
	}
}

// vec is a family of metrics sharing one name and label schema. With
// interns a series per label-value tuple up to the cardinality cap;
// past the cap every new tuple shares the "other" overflow series. A
// vector with no label keys is a scalar: its one series is the bare
// name. All methods are no-ops on a nil receiver.
type vec[M any] struct {
	name   string
	keys   []string
	series interner[string, M]
}

// CounterVec and GaugeVec are the two vector kinds.
type (
	CounterVec = vec[Counter]
	GaugeVec   = vec[Gauge]
)

func newVec[M any](name string, keys []string, limit int) *vec[M] {
	return &vec[M]{name: name, keys: append([]string(nil), keys...), series: newInterner[string, M](limit)}
}

// With returns the metric for the given label values (one per key, in
// key order). A wrong number of values returns the overflow series — a
// misuse must not mint series under a wrong schema. Nil-safe: a nil
// vector returns a nil (no-op) handle.
func (v *vec[M]) With(values ...string) *M {
	if v == nil {
		return nil
	}
	return v.series.get(strings.Join(values, seriesKeySep), len(values) == len(v.keys))
}

// rendered returns the exposition name of the series interned under
// key, e.g. name{tenant="a",shard="0"} with values escaped.
func (v *vec[M]) rendered(key string, overflow bool) string {
	if len(v.keys) == 0 {
		return v.name
	}
	values := strings.SplitN(key, seriesKeySep, len(v.keys))
	var b strings.Builder
	b.WriteString(v.name)
	b.WriteByte('{')
	for i, k := range v.keys {
		if i > 0 {
			b.WriteByte(',')
		}
		val := overflowValue
		if !overflow {
			val = values[i]
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(val))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// fold copies every live series (rendered name -> value) into dst.
func (v *vec[M]) fold(dst map[string]int64, read func(*M) int64) {
	v.series.each(func(key string, m *M, overflow bool) {
		dst[v.rendered(key, overflow)] = read(m)
	})
}
