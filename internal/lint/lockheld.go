package lint

import "go/token"

// AnalyzerLockHeld flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held: channel sends and receives,
// select statements, ranging over a channel, time.Sleep, and net I/O
// (any call into package net or net/http). Holding a lock across any
// of these couples the lock's critical section to a peer or to the
// scheduler — the exact shape of the monitor-shutdown race fixed in
// PR 1. sync.Cond.Wait is deliberately not flagged (it releases the
// lock while blocked).
//
// The analysis is lockFlow's source-order walk of each function body;
// a finding names the most recently taken lock.
var AnalyzerLockHeld = &Analyzer{
	Name: "lockheld",
	Doc:  "no channel operations, net I/O, or time.Sleep while holding a mutex",
	Run:  runLockHeld,
}

func runLockHeld(pass *Pass) {
	w := &lockFlow{pkg: pass.Pkg, onBlock: func(what string, held []string, pos token.Pos) {
		pass.Reportf(pos, "%s while holding %s; move the blocking work outside the critical section", what, held[len(held)-1])
	}}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			// One walk per declaration: a function body, or a package-level
			// var initializer whose function literals start fresh anyway.
			w.held = w.held[:0]
			w.walk(d)
		}
	}
}
