package cnf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS reads a formula in the standard DIMACS CNF format: comment
// lines starting with 'c', a header "p cnf <vars> <clauses>", then clauses
// as whitespace-separated literals terminated by 0 (clauses may span
// lines). The declared clause count is checked when a header is present.
func ParseDIMACS(r io.Reader) (*Formula, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	f := &Formula{}
	declared := -1
	var cur Clause
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("cnf: line %d: bad DIMACS header %q", lineNo, line)
			}
			nv, err1 := strconv.Atoi(fields[2])
			nc, err2 := strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || nv < 0 || nc < 0 {
				return nil, fmt.Errorf("cnf: line %d: bad DIMACS header %q", lineNo, line)
			}
			f.NumVars = nv
			declared = nc
			continue
		}
		for _, tok := range strings.Fields(line) {
			x, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cnf: line %d: bad literal %q", lineNo, tok)
			}
			if x == 0 {
				f.Clauses = append(f.Clauses, cur)
				cur = nil
				continue
			}
			l := Lit(x)
			if l.Var() > f.NumVars {
				f.NumVars = l.Var()
			}
			cur = append(cur, l)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cnf: read DIMACS: %w", err)
	}
	if len(cur) > 0 {
		f.Clauses = append(f.Clauses, cur)
	}
	if declared >= 0 && declared != len(f.Clauses) {
		return nil, fmt.Errorf("cnf: header declares %d clauses, found %d", declared, len(f.Clauses))
	}
	return f, nil
}
