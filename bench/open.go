package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// verdict_scrambled is an open loop: every connection sends one 8-event
// frame per 2 ms slot whether or not the server keeps up, a session taking
// one slot to open, one per frame and one to query and close. Latency is
// timed from the slot's due time, so a stall is charged to every request
// it delays, and the generator's own lateness is reported beside it.

// openWindows is the number of equal stretches the server is read at the
// boundaries of; the first is warm-up.
const openWindows = maxSegments + 1

func (r *onlineRun) planOpen() error {
	perConn := int(r.opt.seconds * r.opt.scale * float64(time.Second) / vsSessionGap)
	perConn = max(perConn, 5)
	for c := range r.plans {
		r.plans[c] = make([]*sessionPlan, perConn)
		for j := range r.plans[c] {
			p, err := planSession(r.opt.seed, j*conns+c)
			if err != nil {
				return err
			}
			r.plans[c][j] = p
		}
	}
	if corruptOracle {
		for c := range r.plans {
			r.plans[c][0].possibly = !r.plans[c][0].possibly
		}
	}
	return nil
}

// timed is one latency sample with the time it was due.
type timed struct {
	due time.Time
	ms  float64
}

// openConn is one connection's tally of an open-loop run.
type openConn struct {
	rep     *report
	verdict []timed
	close   []timed
	append  []timed
	late    []float64
	frames  float64
	flushes float64
}

func (r *onlineRun) runOpen() error {
	perConn := len(r.plans[0])
	total := time.Duration(perConn) * vsSessionGap
	win := total / time.Duration(min(openWindows, perConn))
	t0 := time.Now().Add(20 * time.Millisecond)

	probes := make([]probe, 0, openWindows+1)
	var probeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reads the server at every window boundary while the load runs
		defer wg.Done()
		for at := t0; !at.After(t0.Add(total)); at = at.Add(win) {
			time.Sleep(time.Until(at))
			p, err := r.probe()
			if err != nil {
				probeErr = err
				return
			}
			probes = append(probes, p)
		}
	}()
	clientCPU := selfCPU()
	ocs := make([]*openConn, conns)
	errs := make([]error, conns)
	for c := range ocs {
		ocs[c] = &openConn{rep: newReport()}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = r.driveOpen(c, ocs[c], t0)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(append(errs, probeErr)...); err != nil {
		return err
	}
	r.client.cpu = selfCPU() - clientCPU
	for i := 2; i < len(probes); i++ { // probes[0..1] bound the warm-up window
		a, b := probes[i-1], probes[i]
		r.windows = append(r.windows, window{events: b.events - a.events, wall: b.at.Sub(a.at), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc})
	}
	if len(probes) > 1 {
		r.gcCycles = probes[len(probes)-1].gc - probes[1].gc
		// Client CPU covers the whole run, so compare it with every event.
		r.client.events = probes[len(probes)-1].events - probes[0].events
	}
	warm := t0.Add(win)
	merge := func(pick func(*openConn) []timed) []float64 {
		var all []timed
		for _, oc := range ocs {
			all = append(all, pick(oc)...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].due.Before(all[j].due) })
		var out []float64
		for _, s := range all {
			if !s.due.Before(warm) {
				out = append(out, s.ms)
			}
		}
		return out
	}
	r.lat["verdict"] = merge(func(o *openConn) []timed { return o.verdict })
	r.lat["close"] = merge(func(o *openConn) []timed { return o.close })
	r.lat["append"] = merge(func(o *openConn) []timed { return o.append })
	for _, oc := range ocs {
		r.late = append(r.late, oc.late...)
		r.flushes.frames += oc.frames
		r.flushes.flushes += oc.flushes
		r.rep.merge(oc.rep)
	}
	// An open loop that cannot keep its schedule measures the generator,
	// not the server: refuse to report. (Shrunken smoke runs measure
	// nothing anyway, and under the race detector they cannot keep up.)
	if share := lateShare(r.late); share > maxLateShare && r.opt.scale >= 1 {
		return fmt.Errorf("load generator fell more than one frame gap behind on %.1f%% of frames (max %.1f ms late): result withheld", 100*share, quantile(r.late, 1))
	}
	return nil
}

// maxLateShare is the share of frames that may leave more than one frame
// gap late before the run is withheld. This sandbox freezes for 100 ms and
// more a few times a run, and each freeze puts some 60 frames per
// connection behind through no fault of the generator: that alone is 1-4%.
// A generator that cannot keep the pace is behind on nearly every frame.
const maxLateShare = 0.10

// lateShare is the share of frames sent more than one frame gap late.
func lateShare(late []float64) float64 {
	behind := 0
	for _, l := range late {
		if l > ms(vsFrameGap) {
			behind++
		}
	}
	return float64(behind) / float64(max(len(late), 1))
}

// driveOpen runs one connection's sessions on the slot schedule.
func (r *onlineRun) driveOpen(c int, oc *openConn, t0 time.Time) error {
	t := r.tcs[c]
	slot := 0
	wait := func() time.Time { // sleeps to the next slot's due time and returns it
		due := t0.Add(time.Duration(slot) * vsFrameGap)
		slot++
		time.Sleep(time.Until(due))
		return due
	}
	for _, p := range r.plans[c] {
		if t.on = r.opt.trace; t.on {
			t.root = t.log.begin("client.session", p.id, 0)
		}
		wait()
		oc.rep.attempted++
		if err := t.open(p.id, p.spec); err != nil {
			return fmt.Errorf("session %s: open: %w", p.id, err)
		}
		var sent int64
		for f, frame := range p.frames {
			due := wait()
			start := time.Now()
			oc.late = append(oc.late, ms(start.Sub(due)))
			oc.rep.attempted++
			if err := t.append(p.id, frame); err != nil {
				return fmt.Errorf("session %s: append: %w", p.id, err)
			}
			oc.append = append(oc.append, timed{due, ms(time.Since(start))})
			sent += int64(len(frame))
			if f != p.witness {
				continue
			}
			// The frame carrying the last witness event is in: ask.
			oc.rep.attempted++
			st, _, err := t.query(p.id)
			if err != nil {
				return fmt.Errorf("session %s: query: %w", p.id, err)
			}
			oc.verdict = append(oc.verdict, timed{due, ms(time.Since(due))})
			if !st.Possibly {
				oc.rep.fail("session %s: no verdict after witness frame %d", p.id, f)
			}
		}
		due := wait()
		oc.rep.attempted += 2
		st, _, err := t.query(p.id)
		if err != nil {
			return fmt.Errorf("session %s: final query: %w", p.id, err)
		}
		start := time.Now()
		v, _, err := t.close(p.id)
		if err != nil {
			return fmt.Errorf("session %s: close: %w", p.id, err)
		}
		oc.close = append(oc.close, timed{due, ms(time.Since(start))})
		oc.frames += float64(len(p.frames))
		oc.flushes += float64(st.Flushes)
		switch {
		case st.Error != "":
			oc.rep.fail("session %s: server-side error: %s", p.id, st.Error)
		case st.Delivered != sent || st.Holdback != 0:
			oc.rep.fail("session %s: sent %d events, delivered %d, holdback %d", p.id, sent, st.Delivered, st.Holdback)
		case v.Possibly != p.possibly:
			oc.rep.fail("session %s (%s): close says possibly=%v, oracle says %v", p.id, p.spec.Pred, v.Possibly, p.possibly)
		case p.spec.Retain && !v.DefinitelyKnown:
			oc.rep.fail("session %s (%s): retained trace but Definitely undecided", p.id, p.spec.Pred)
		case p.checkDef && v.DefinitelyKnown && v.Definitely != p.definitely:
			oc.rep.fail("session %s (%s): close says definitely=%v, oracle says %v", p.id, p.spec.Pred, v.Definitely, p.definitely)
		}
		if t.on {
			t.log.end(t.root)
		}
	}
	return nil
}
