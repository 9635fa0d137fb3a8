// Package experiments is the reproduction record as data: one table,
// Claims, with an entry per figure (F1–F3), formal claim (E1–E7) and
// extension (X1–X3) of Mittal & Garg (ICDCS 2001). The paper has no
// measurement section, so an entry measures deterministic quantities only
// — agreement with independent oracles, selection counts, work counters,
// cut counts; never a clock — and states the paper's bound over them.
// Three readers consume the table: TestClaims asserts every bound,
// BenchmarkClaims times every ladder, and cmd/gpdbench prints the rows
// as the generated block of EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Size is one rung of a claim's ladder: two size parameters read by the
// claim's Measure, or a named case whose Name prints as the first column.
type Size struct {
	Name string
	N, M int
}

// Row is the measured quantities of one rung, keyed by column name.
type Row map[string]int64

// NA marks a quantity a rung does not measure — the exhaustive oracle
// beyond the sizes it can finish. It prints as "-".
const NA = math.MinInt64

// Bound is one statement of the paper's claim over the rows of a ladder;
// Text prints under the table, so what is printed is what is checked.
type Bound struct {
	Text  string
	Holds func([]Row) error
}

// Claim is one reproduced artifact of the paper.
type Claim struct {
	// ID is F1..F3, E1..E7 or X1..X3; Ref is where the paper states it.
	ID, Ref, Title string
	Columns        []string // the Row keys in print order
	// Sizes is the ladder, cheapest rungs first; Short is how many of
	// them run under testing.Short (0: all).
	Sizes []Size
	Short int
	// Measure runs one rung. An instance it cannot build or a detector
	// that refuses fails the rung (see must), never fills a cell.
	Measure func(Size) Row
	Bounds  []Bound
}

// failure is what a rung panics with when an instance cannot be built or
// a detector refuses it. The instances are constants of this package, so
// only a bug produces one; Run reports it as the claim's error.
type failure struct{ error }

func must[T any](v T, err error) T {
	if err != nil {
		panic(failure{err})
	}
	return v
}

// Get returns the claim with the given id (case-insensitive), or nil.
func Get(id string) *Claim {
	for _, cl := range Claims {
		if strings.EqualFold(cl.ID, id) {
			return cl
		}
	}
	return nil
}

// Check applies every bound to the rows of a ladder.
func (cl *Claim) Check(rows []Row) error {
	for _, b := range cl.Bounds {
		if err := b.Holds(rows); err != nil {
			return fmt.Errorf("%s: %w", cl.ID, err)
		}
	}
	return nil
}

// Run measures the ladder (its first Short rungs when short is set) and
// checks the rows.
func (cl *Claim) Run(short bool) (rows []Row, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case failure:
			rows, err = nil, fmt.Errorf("%s: %w", cl.ID, r.error)
		default:
			panic(r)
		}
	}()
	sizes := cl.Sizes
	if short && cl.Short > 0 {
		sizes = sizes[:cl.Short]
	}
	for _, sz := range sizes {
		rows = append(rows, cl.Measure(sz))
	}
	return rows, cl.Check(rows)
}

// Markdown renders the claim and its measured rows as one section of
// EXPERIMENTS.md's generated block.
func (cl *Claim) Markdown(rows []Row) string {
	var b strings.Builder
	cols := cl.Columns
	if cl.Sizes[0].Name != "" {
		cols = append([]string{"case"}, cols...)
	}
	fmt.Fprintf(&b, "### %s — %s: %s\n\n| %s |\n|%s\n", cl.ID, cl.Ref, cl.Title,
		strings.Join(cols, " | "), strings.Repeat("---|", len(cols)))
	for i, row := range rows {
		b.WriteString("|")
		if name := cl.Sizes[i].Name; name != "" {
			fmt.Fprintf(&b, " %s |", name)
		}
		for _, col := range cl.Columns {
			if row[col] == NA {
				b.WriteString(" - |")
			} else {
				fmt.Fprintf(&b, " %d |", row[col])
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\nChecked on every row that measures both sides:")
	for _, bd := range cl.Bounds {
		fmt.Fprintf(&b, " `%s`;", bd.Text)
	}
	return strings.TrimSuffix(b.String(), ";") + ".\n\n"
}

// Write runs each claim's full ladder and writes its section; a claim
// that fails to measure or violates a bound stops the output.
func Write(w io.Writer, claims []*Claim) error {
	for _, cl := range claims {
		rows, err := cl.Run(false)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, cl.Markdown(rows)); err != nil {
			return err
		}
	}
	return nil
}

// bound is "a op b" with op one of ==, <=, < and b a column name or an
// integer. Rows where a side is NA are outside it, but a bound that no
// row is inside fails: it cannot pass by skipping everything.
func bound(a, op, b string) Bound {
	literal, err := strconv.ParseInt(b, 10, 64)
	return Bound{a + " " + op + " " + b, func(rows []Row) error {
		inside := 0
		for i, r := range rows {
			x, y := r[a], literal
			if err != nil {
				y = r[b]
			}
			if x == NA || y == NA {
				continue
			}
			inside++
			if !(op == "==" && x == y || op == "<=" && x <= y || op == "<" && x < y) {
				return fmt.Errorf("row %d: %s = %d, want %s %s (= %d)", i, a, x, op, b, y)
			}
		}
		if inside == 0 {
			return fmt.Errorf("%s %s %s is measured on no row", a, op, b)
		}
		return nil
	}}
}

// exponentAtMost bounds the least-squares slope of log work on log size
// over the ladder: a polynomial claim is checked on counted work, which
// repeats exactly, instead of on wall time, which does not.
func exponentAtMost(size, work string, degree float64) Bound {
	text := fmt.Sprintf("fitted exponent of %s over %s <= %g", work, size, degree)
	return Bound{text, func(rows []Row) error {
		var sx, sy, sxx, sxy, n float64
		for _, r := range rows {
			if r[size] <= 0 || r[work] <= 0 {
				continue
			}
			lx, ly := math.Log(float64(r[size])), math.Log(float64(r[work]))
			sx, sy, sxx, sxy, n = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly, n+1
		}
		den := n*sxx - sx*sx
		if n < 2 || den == 0 {
			return fmt.Errorf("%s: fewer than two sizes to fit", text)
		}
		if slope := (n*sxy - sx*sy) / den; slope > degree {
			return fmt.Errorf("%s: fitted %.2f", text, slope)
		}
		return nil
	}}
}
