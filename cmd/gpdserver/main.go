// Command gpdserver serves multi-tenant streaming predicate detection
// over TCP: monitored applications open sessions, stream vector-clock
// timestamped events, and get Possibly verdicts online (plus Definitely
// at close, for sessions that retain their trace).
//
// Usage:
//
//	gpdserver -addr 127.0.0.1:7400 -stats 127.0.0.1:7401
//	gpdserver -shards 8 -queue 512 -batch 128 -policy drop-oldest
//	gpdserver -max-predicates-per-tenant 1000 -slo-registered 50000
//
// Multiplexed sessions (Spec.Mux) carry many registered predicates over
// one causally ordered stream; -max-predicates-per-tenant caps how many
// predicates one tenant may hold registered at once, and the stats
// surface reports per-tenant registration counts (/debug/vars), the
// mux_registered_predicates{tenant=...} gauges, and the routing economy
// counters mux_steps_total / mux_steps_skipped_total (/metrics).
//
// The wire protocol is length-prefixed JSON frames (see internal/stream);
// examples/streamclient is a ready-made load generator and correctness
// checker. The -stats listener serves expvar-style JSON at /debug/vars
// with per-shard and per-session counters, Prometheus text exposition at
// /metrics (the same per-shard counters as gpd_stream_*{shard=...} — one
// store, two renderings — plus runtime self-telemetry under
// gpd_runtime_*; README "Observability" lists every series with the
// consumer that reads it), the
// cost ledger at /debug/tenants — per-(tenant, family) CPU, detector
// steps, events and wire bytes, plus the hottest predicates —
// (?format=text for a table, ?k= for the hot-predicate depth), the
// flight-recorder ring at /debug/flight (?format=json or ?format=chrome
// for a Perfetto-loadable trace), and (with -pprof) the net/http/pprof
// profiling endpoints under /debug/pprof/. With -profile-labels the
// detector work additionally carries pprof labels (tenant, family,
// shard), so a CPU profile taken from /debug/pprof/profile attributes
// samples per tenant; -slo-tenant-cpu-share arms a watchdog rule that
// fires when one tenant holds more than the given fraction of detector
// CPU.
//
// Logs are structured (log/slog): -log-format selects text or json,
// -log-level the threshold. The -slo-* flags arm the watchdog: a breach
// bumps slo_breaches_total{rule=...}, is logged at warn level, and —
// with -slo-dump — writes the flight ring to a file once per rule.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/stream"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "gpdserver:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("gpdserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7400", "TCP listen address for the stream protocol")
	statsAddr := fs.String("stats", "", "HTTP listen address for the stats endpoint (empty: disabled)")
	shards := fs.Int("shards", 4, "worker shards (sessions are hashed onto shards)")
	queue := fs.Int("queue", 256, "per-shard mailbox capacity, in frames")
	batch := fs.Int("batch", 64, "max frames drained per worker iteration")
	policy := fs.String("policy", "backpressure", "mailbox overflow policy: backpressure or drop-oldest")
	maxPreds := fs.Int("max-predicates-per-tenant", 0, "cap on registered predicates per tenant across mux sessions (0: uncapped)")
	idle := fs.Duration("idle-timeout", 5*time.Minute, "disconnect peers silent for this long (0: never)")
	write := fs.Duration("write-timeout", 30*time.Second, "per-reply write deadline (0: none)")
	withPprof := fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -stats listener")
	logLevel := fs.String("log-level", "info", "log threshold: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	flightCap := fs.Int("flight", 4096, "flight-recorder ring capacity in records (0: disabled)")
	sloVerdict := fs.Duration("slo-verdict-latency", 0, "SLO: max open-to-verdict latency per session (0: off)")
	sloHoldback := fs.Int("slo-holdback", 0, "SLO: max per-session holdback depth in events (0: off)")
	sloMailbox := fs.Int("slo-mailbox", 0, "SLO: max per-shard mailbox backlog in frames (0: off)")
	sloShed := fs.Uint64("slo-shed", 0, "SLO: max shed frames engine-wide (0: off)")
	sloRegistered := fs.Int("slo-registered", 0, "SLO: max registered predicates engine-wide (0: off)")
	sloRetained := fs.Int("slo-retained", 0, "SLO: max per-session held history in events — slice frontier or retained trace (0: off)")
	sloDump := fs.String("slo-dump", "", "file to dump the flight ring to on SLO breach (once per rule)")
	sloDumpFormat := fs.String("slo-dump-format", "json", "breach dump encoding: json or chrome")
	sloCPUShare := fs.Float64("slo-tenant-cpu-share", 0, "SLO: max fraction of detector CPU one tenant may hold, 0..1 (0: off)")
	sloCPUFloor := fs.Duration("slo-tenant-cpu-floor", 0, "ignore tenants below this much total CPU when checking -slo-tenant-cpu-share (0: 100ms default)")
	profileLabels := fs.Bool("profile-labels", false, "attach pprof labels (tenant, family, shard) to detector work for CPU-profile attribution")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *withPprof && *statsAddr == "" {
		return errors.New("-pprof needs -stats to serve on")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", *logLevel, err)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(stdout, &slog.HandlerOptions{Level: level})
	case "json":
		handler = slog.NewJSONHandler(stdout, &slog.HandlerOptions{Level: level})
	default:
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)
	if *sloDumpFormat != "json" && *sloDumpFormat != "chrome" {
		return fmt.Errorf("unknown -slo-dump-format %q (want json or chrome)", *sloDumpFormat)
	}

	metrics := obs.NewRegistry()
	obs.BindRuntimeMetrics(metrics)
	ledger := obs.NewLedger()
	var flight *obs.Flight
	if *flightCap > 0 {
		flight = obs.NewFlight(*flightCap)
	}
	cfg := stream.Config{
		Shards: *shards, QueueLen: *queue, BatchSize: *batch,
		Metrics: metrics, Flight: flight, Ledger: ledger,
		ProfileLabels:          *profileLabels,
		MaxPredicatesPerTenant: *maxPreds,
		SLO: stream.SLOConfig{
			VerdictLatency:       *sloVerdict,
			HoldbackDepth:        *sloHoldback,
			MailboxDepth:         *sloMailbox,
			ShedFrames:           *sloShed,
			RegisteredPredicates: *sloRegistered,
			RetainedEvents:       *sloRetained,
			TenantCPUShare:       *sloCPUShare,
			TenantCPUFloor:       *sloCPUFloor,
			DumpPath:             *sloDump,
			DumpFormat:           *sloDumpFormat,
			OnBreach: func(rule, detail, path string) {
				logger.Warn("slo breach", "rule", rule, "detail", detail, "dump", path)
			},
		},
	}
	switch *policy {
	case "backpressure":
		cfg.Policy = stream.Backpressure
	case "drop-oldest":
		cfg.Policy = stream.DropOldest
	default:
		return fmt.Errorf("unknown -policy %q (want backpressure or drop-oldest)", *policy)
	}

	eng := stream.NewEngine(cfg)
	defer eng.Shutdown()
	srv, err := stream.ListenAndServe(*addr, eng,
		stream.WithServerIdleTimeout(*idle), stream.WithServerWriteTimeout(*write),
		stream.WithServerLogger(logger), stream.WithServerFlight(flight))
	if err != nil {
		return err
	}
	defer srv.Close()
	logger.Info("listening",
		"addr", srv.Addr(), "shards", cfg.Shards, "policy", cfg.Policy.String(),
		"flight", *flightCap)

	var stats *http.Server
	statsErr := make(chan error, 1)
	if *statsAddr != "" {
		ln, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			return fmt.Errorf("stats listen: %w", err)
		}
		stats = &http.Server{Handler: statsHandler(eng, metrics, flight, ledger, logger, *withPprof)}
		go func() { statsErr <- stats.Serve(ln) }()
		logger.Info("stats", "url", fmt.Sprintf("http://%s/debug/vars", ln.Addr()))
		logger.Info("metrics", "url", fmt.Sprintf("http://%s/metrics", ln.Addr()))
		logger.Info("flight", "url", fmt.Sprintf("http://%s/debug/flight", ln.Addr()))
		logger.Info("tenants", "url", fmt.Sprintf("http://%s/debug/tenants", ln.Addr()))
	}

	select {
	case <-stop:
		logger.Info("shutting down")
	case err := <-statsErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("stats server: %w", err)
		}
	}
	if stats != nil {
		stats.Close()
	}
	return nil
}

// statsHandler serves the engine's stats surface: expvar-style JSON at
// /debug/vars (one top-level map with a "gpdserver" variable holding the
// snapshot), Prometheus text exposition at /metrics, the flight ring at
// /debug/flight (?format=json|chrome), the cost ledger at /debug/tenants
// (?format=json|text, ?k= for the hot-predicate depth), and optionally
// the net/http/pprof endpoints under /debug/pprof/.
func statsHandler(eng *stream.Engine, metrics *obs.Registry, flight *obs.Flight, ledger *obs.Ledger, logger *slog.Logger, withPprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"gpdserver": eng.Snapshot()}); err != nil {
			// Too late for an HTTP error; surface the truncated scrape.
			logger.Warn("/debug/vars write failed", "err", err)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metrics.WritePrometheus(w, "gpd")
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		// A nil recorder (-flight 0) still answers, with an empty ring.
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			flight.WriteJSON(w)
		case "chrome":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			flight.WriteChromeTrace(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want json or chrome)", format),
				http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/tenants", func(w http.ResponseWriter, r *http.Request) {
		k := 10
		if q := r.URL.Query().Get("k"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 0 {
				http.Error(w, fmt.Sprintf("bad k %q (want a non-negative integer)", q),
					http.StatusBadRequest)
				return
			}
			k = n
		}
		view := tenantsView{
			LedgerSnapshot: ledger.Snapshot(),
			HotPredicates:  ledger.HotPredicates(k),
			Registered:     eng.Snapshot().Tenants,
		}
		switch format := r.URL.Query().Get("format"); format {
		case "", "json":
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(view); err != nil {
				logger.Warn("/debug/tenants write failed", "err", err)
			}
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			writeTenantsText(w, view)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want json or text)", format),
				http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// tenantsView is the /debug/tenants payload: the cost ledger ranked by
// CPU, the hottest predicates by steps, and the control plane's
// per-tenant registration counts, joined so one scrape answers "who is
// expensive and what are they running".
type tenantsView struct {
	obs.LedgerSnapshot
	HotPredicates []obs.PredCost `json:"hot_predicates,omitempty"`
	Registered    map[string]int `json:"registered,omitempty"`
}

// writeTenantsText renders the ledger as a fixed-width table for humans
// (curl without jq). Scopes arrive ranked; the share column repeats the
// JSON cpu_share rounded to a tenth of a percent.
func writeTenantsText(w io.Writer, v tenantsView) {
	fmt.Fprintf(w, "total detector CPU: %s\n\n", time.Duration(v.TotalCPUNanos))
	fmt.Fprintf(w, "%-16s %-12s %10s %7s %12s %10s %10s %10s\n",
		"TENANT", "FAMILY", "CPU", "SHARE", "STEPS", "EVENTS", "BYTES-IN", "BYTES-OUT")
	for _, s := range v.Scopes {
		fmt.Fprintf(w, "%-16s %-12s %10s %6.1f%% %12d %10d %10d %10d\n",
			s.Tenant, s.Family, time.Duration(s.CPUNanos), 100*s.CPUShare,
			s.Steps, s.Events, s.BytesIn, s.BytesOut)
	}
	if len(v.HotPredicates) > 0 {
		fmt.Fprintf(w, "\n%-24s %-16s %-12s %12s\n", "PREDICATE", "TENANT", "FAMILY", "STEPS")
		for _, p := range v.HotPredicates {
			fmt.Fprintf(w, "%-24s %-16s %-12s %12d\n", p.ID, p.Tenant, p.Family, p.Steps)
		}
	}
}
