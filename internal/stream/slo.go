package stream

import (
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
)

// SLO rule names: the label values of slo_breaches_total{rule=...} and
// the identifiers passed to SLOConfig.OnBreach.
const (
	// SLOVerdictLatency fires when a session's verdict latches later
	// than the threshold after the session opened.
	SLOVerdictLatency = "verdict_latency"
	// SLOHoldbackDepth fires when a session's causal holdback queue
	// grows past the threshold.
	SLOHoldbackDepth = "holdback_depth"
	// SLOMailboxDepth fires when a shard mailbox backs up past the
	// threshold.
	SLOMailboxDepth = "mailbox_depth"
	// SLOShedFrames fires when the engine has shed more frames than the
	// threshold (mailbox overflow plus unknown-session drops).
	SLOShedFrames = "shed_frames"
	// SLOTenantCPUShare fires when one tenant's share of the
	// ledger-attributed CPU exceeds the threshold — the noisy-neighbour
	// alarm for a multi-tenant engine. Needs Config.Ledger.
	SLOTenantCPUShare = "tenant_cpu_share"
	// SLORetainedEvents fires when a session's held history — the slice
	// frontier of a sliced session, the full delivered trace of a
	// retaining one — exceeds the threshold. For sliced sessions this is
	// the O(slice) memory-bound promise; a breach means the predicate's
	// slice itself is growing (e.g. a never-true conjunct pinning the
	// bottom advancement).
	SLORetainedEvents = "retained_events"
)

// sloRules lists every rule so NewEngine can pre-intern the breach
// counters — a rule that never fires still exports an explicit zero.
var sloRules = []string{SLOVerdictLatency, SLOHoldbackDepth, SLOMailboxDepth, SLOShedFrames, SLOTenantCPUShare, SLORetainedEvents}

// SLOConfig is the engine's latency/backlog watchdog. A zero threshold
// disables its rule; a zero config disables the watchdog entirely. On
// breach the engine bumps slo_breaches_total{rule=...} and — once per
// rule — dumps the flight-recorder ring to DumpPath, so the causal
// history that explains the first breach survives even if the process
// keeps degrading.
//
// Latching: verdict-latency and holdback rules fire at most once per
// session, the mailbox rule once per shard, and the shed rule once per
// engine, so a sustained breach cannot flood the counters or the logs.
type SLOConfig struct {
	// VerdictLatency is the open→verdict latching budget per session.
	VerdictLatency time.Duration
	// HoldbackDepth is the per-session holdback queue budget in events.
	HoldbackDepth int
	// MailboxDepth is the per-shard mailbox backlog budget in messages.
	MailboxDepth int
	// ShedFrames is the engine-wide shed frame budget.
	ShedFrames uint64
	// TenantCPUShare is the fraction (0,1) of ledger-attributed CPU one
	// tenant may hold before the tenant_cpu_share rule fires, at most
	// once per tenant. Requires Config.Ledger; checked on every control
	// message and every 8th ingest batch of a shard, so a breach is
	// detected within a few batches.
	TenantCPUShare float64
	// TenantCPUFloor is the minimum total attributed CPU before shares
	// are evaluated (default 100ms) — with microseconds of history,
	// whichever tenant spoke first holds 100% of nothing.
	TenantCPUFloor time.Duration
	// RetainedEvents is the per-session held-history budget in events
	// (slice frontier or retained trace). Fires at most once per
	// session.
	RetainedEvents int
	// DumpPath is the file the flight ring is dumped to on breach (""
	// disables dumping). The write is atomic: a temp file in the same
	// directory, renamed into place.
	DumpPath string
	// DumpFormat selects the dump encoding: "json" (default) or
	// "chrome" (trace-event JSON for Perfetto).
	DumpFormat string
	// OnBreach, when non-nil, is called after the counter bump with the
	// rule name, a human-readable detail, and the dump path ("" when
	// this breach did not write a dump). Called on the goroutine that
	// detected the breach; keep it cheap.
	OnBreach func(rule, detail, path string)
}

// breach accounts one SLO violation: bump the rule's counter, write the
// flight dump if this rule has not dumped yet, then notify. Breaches
// fire at most once per rule transition (dumps once per rule, ever), so
// even though the ingest path calls it, it is a slow-path boundary.
//
//lint:coldpath
func (e *Engine) breach(rule, detail string) {
	e.vBreaches.With(rule).Inc()
	path := ""
	if e.cfg.SLO.DumpPath != "" {
		if _, dumped := e.sloDumped.LoadOrStore(rule, struct{}{}); !dumped {
			if err := e.dumpFlight(); err == nil {
				path = e.cfg.SLO.DumpPath
			} else if f := e.cfg.SLO.OnBreach; f != nil {
				detail += " (flight dump failed: " + err.Error() + ")"
			}
		}
	}
	if f := e.cfg.SLO.OnBreach; f != nil {
		f(rule, detail, path)
	}
}

// checkTenantCPUShare evaluates the noisy-neighbour rule for one tenant
// against the ledger: share = tenant CPU / total attributed CPU, gated
// by the floor so early history cannot fire it, latched once per
// tenant. A no-op when the rule is off.
func (e *Engine) checkTenantCPUShare(tenant string) {
	if e.cfg.SLO.TenantCPUShare <= 0 {
		return
	}
	total := e.ledger.TotalCPUNanos()
	floor := e.cfg.SLO.TenantCPUFloor
	if floor <= 0 {
		floor = 100 * time.Millisecond
	}
	if total < int64(floor) {
		return
	}
	cpu := e.ledger.TenantCPUNanos(tenant)
	share := float64(cpu) / float64(total)
	if share <= e.cfg.SLO.TenantCPUShare {
		return
	}
	if _, fired := e.sloCPUFired.LoadOrStore(tenant, struct{}{}); fired {
		return
	}
	e.breach(SLOTenantCPUShare, "tenant "+tenant+": "+
		strconv.FormatFloat(share*100, 'f', 1, 64)+"% of attributed CPU ("+
		time.Duration(cpu).String()+" of "+time.Duration(total).String()+")")
}

// dumpFlight writes the flight ring to SLO.DumpPath atomically
// (temp file + rename), in the configured format.
func (e *Engine) dumpFlight() error {
	dst := e.cfg.SLO.DumpPath
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".flight-*")
	if err != nil {
		return err
	}
	if e.cfg.SLO.DumpFormat == "chrome" {
		err = e.flight.WriteChromeTrace(tmp)
	} else {
		err = e.flight.WriteJSON(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// accountShed is the single accounting point for a dropped append frame
// (mailbox overflow or unknown session): shed counters, a flight
// record, and the shed-frames SLO.
func (e *Engine) accountShed(sh *shard, session string, seq uint64, events int, reason string) {
	sh.shedFrames.Inc()
	sh.shedEvents.Add(int64(events))
	e.flight.Record(obs.FlightRecord{
		Seq: seq, Session: session, Shard: sh.idx, Proc: -1,
		Stage: obs.StageShed, Detail: reason + ", " + strconv.Itoa(events) + " events",
	})
	if max := e.cfg.SLO.ShedFrames; max > 0 {
		if total := e.shedTotal.Add(1); total > max && !e.sloShedFired.Swap(true) {
			e.breach(SLOShedFrames, "shed frames "+strconv.FormatUint(total, 10)+
				" > "+strconv.FormatUint(max, 10))
		}
	}
}
