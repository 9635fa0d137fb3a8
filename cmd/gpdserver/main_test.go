package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/distributed-predicates/gpd/internal/obs"
	"github.com/distributed-predicates/gpd/internal/stream"
)

// TestRunServesAndShutsDown boots the server on ephemeral ports, runs one
// session end to end, checks the stats endpoint, and shuts down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0"}, pw, stop)
		pw.CloseWithError(err)
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	var addr, statsURL string
	for addr == "" || statsURL == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if v := slogValue(line, "listening", "addr"); v != "" {
			addr = v
		}
		if v := slogValue(line, "stats", "url"); v != "" {
			statsURL = v
		}
	}
	if addr == "" || statsURL == "" {
		t.Fatalf("startup lines not seen (addr=%q stats=%q)", addr, statsURL)
	}
	go io.Copy(io.Discard, pr) // keep draining so shutdown logs don't block

	cl, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open("t", stream.Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("t", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	verdict, err := cl.CloseSession("t")
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Possibly {
		t.Fatal("two concurrent true events: want Possibly")
	}

	resp, err := http.Get(statsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Gpdserver stream.Snapshot `json:"gpdserver"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if vars.Gpdserver.Events != 2 || vars.Gpdserver.Detections != 1 {
		t.Fatalf("stats snapshot: %+v", vars.Gpdserver)
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down on signal")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-policy", "nope"}, io.Discard, nil); err == nil {
		t.Fatal("want error for unknown policy")
	}
	if err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, nil); err == nil {
		t.Fatal("want error for unusable address")
	}
	if err := run([]string{"-pprof"}, io.Discard, nil); err == nil {
		t.Fatal("want error for -pprof without -stats")
	}
	if err := run([]string{"-log-level", "loud"}, io.Discard, nil); err == nil {
		t.Fatal("want error for unknown log level")
	}
	if err := run([]string{"-log-format", "xml"}, io.Discard, nil); err == nil {
		t.Fatal("want error for unknown log format")
	}
	if err := run([]string{"-slo-dump-format", "pcap"}, io.Discard, nil); err == nil {
		t.Fatal("want error for unknown dump format")
	}
	// Values that would switch a check off or leave it unable to fire.
	// The stop channel already holds a signal, so a run that accepted
	// them would return nil instead of blocking.
	for _, bad := range [][]string{
		{"-max-predicates-per-tenant", "-1"},
		{"-slo-verdict-latency", "-1s"},
		{"-slo-holdback", "-1"},
		{"-slo-mailbox", "-1"},
		{"-slo-retained", "-1"},
		{"-slo-tenant-cpu-floor", "-1ms"},
		{"-slo-tenant-cpu-share", "1.5"},
		{"-slo-tenant-cpu-share", "1"},
		{"-slo-tenant-cpu-share", "-0.5"},
	} {
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt
		err := run(append([]string{"-addr", "127.0.0.1:0"}, bad...), io.Discard, stop)
		if err == nil || !strings.Contains(err.Error(), bad[0]+" ") {
			t.Errorf("run %v: err %v, want a refusal naming %s", bad, err, bad[0])
		}
	}
}

// slogValue extracts a key=value attribute from a slog text-format line
// carrying the given message (startup values never contain spaces).
func slogValue(line, msg, key string) string {
	if !strings.Contains(line, "msg="+msg+" ") && !strings.HasSuffix(line, "msg="+msg) {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// TestMetricsEndpoint boots the server with -pprof, drives one session,
// and checks that the Prometheus exposition moves and pprof answers.
func TestMetricsEndpoint(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0", "-pprof"}, pw, stop)
		pw.CloseWithError(err)
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	var addr, metricsURL, flightURL string
	for addr == "" || metricsURL == "" || flightURL == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if v := slogValue(line, "listening", "addr"); v != "" {
			addr = v
		}
		if v := slogValue(line, "metrics", "url"); v != "" {
			metricsURL = v
		}
		if v := slogValue(line, "flight", "url"); v != "" {
			flightURL = v
		}
	}
	if addr == "" || metricsURL == "" || flightURL == "" {
		t.Fatalf("startup lines not seen (addr=%q metrics=%q flight=%q)", addr, metricsURL, flightURL)
	}
	go io.Copy(io.Discard, pr)

	cl, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open("m", stream.Spec{Pred: "all(x)", Procs: 2, Retain: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("m", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CloseSession("m"); err != nil {
		t.Fatal(err)
	}

	body := httpGet(t, metricsURL)
	for _, want := range []string{
		"# TYPE gpd_stream_events_total counter",
		"# TYPE gpd_stream_frames_total counter",
		"# TYPE gpd_stream_detections_total counter",
		"gpd_stream_finalize_millis_count 1",
		`gpd_stream_finalize_work_total{counter="stream.rebuilt_events"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	base := strings.TrimSuffix(metricsURL, "/metrics")
	if !strings.Contains(httpGet(t, base+"/debug/pprof/cmdline"), "gpdserver") &&
		!strings.Contains(httpGet(t, base+"/debug/pprof/cmdline"), "test") {
		t.Error("pprof cmdline endpoint not serving")
	}

	// Flight endpoint: the session's lifecycle, from its recv records
	// on, is in the ring, and the chrome view parses as trace-event JSON
	// whose every event carries a phase.
	var fs obs.FlightSnapshot
	if err := json.Unmarshal([]byte(httpGet(t, flightURL)), &fs); err != nil {
		t.Fatalf("/debug/flight does not parse: %v", err)
	}
	recv := false
	for _, r := range fs.Records {
		recv = recv || r.Stage == obs.StageRecv
	}
	if !recv {
		t.Errorf("/debug/flight has no recv record after a session ran: %+v", fs.Records)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, flightURL+"?format=chrome")), &chrome); err != nil {
		t.Fatalf("/debug/flight?format=chrome does not parse: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("/debug/flight?format=chrome has no events")
	}
	for _, ev := range chrome.TraceEvents {
		if ev["ph"] == nil {
			t.Errorf("/debug/flight?format=chrome event without a phase: %v", ev)
			break
		}
	}
	if resp, err := http.Get(flightURL + "?format=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bogus format: status %d, want 400", resp.StatusCode)
		}
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down on signal")
	}
}

// TestTenantsEndpoint boots the server with -profile-labels and
// -max-predicates-per-tenant 1, drives two sessions under distinct
// tenants plus a mux session with one registrant per tenant, and checks
// the /debug/tenants views: JSON scopes carry the right per-tenant event
// counts and each registrant's detector steps under its own tenant, the
// text table renders, /metrics carries the runtime self-telemetry and
// per-tenant registration gauges, and bad query parameters get a 400.
// A second registration for the same tenant is refused by the cap.
func TestTenantsEndpoint(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0", "-profile-labels",
			"-max-predicates-per-tenant", "1"}, pw, stop)
		pw.CloseWithError(err)
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	var addr, tenantsURL, metricsURL string
	for addr == "" || tenantsURL == "" || metricsURL == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if v := slogValue(line, "listening", "addr"); v != "" {
			addr = v
		}
		if v := slogValue(line, "tenants", "url"); v != "" {
			tenantsURL = v
		}
		if v := slogValue(line, "metrics", "url"); v != "" {
			metricsURL = v
		}
	}
	if addr == "" || tenantsURL == "" || metricsURL == "" {
		t.Fatalf("startup lines not seen (addr=%q tenants=%q metrics=%q)", addr, tenantsURL, metricsURL)
	}
	go io.Copy(io.Discard, pr)

	cl, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// acme streams four events, rival two: the ledger must rank and
	// count them accordingly.
	if err := cl.Open("a", stream.Spec{Pred: "all(x)", Procs: 2, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Open("b", stream.Spec{Pred: "all(x)", Procs: 2, Tenant: "rival"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("a", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}},
		{Proc: 0, VC: []int64{2, 0}},
		{Proc: 0, VC: []int64{3, 0}},
		{Proc: 1, VC: []int64{0, 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("b", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CloseSession("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CloseSession("b"); err != nil {
		t.Fatal(err)
	}

	// The mux session itself carries no tenant, so its events count
	// under "default"; its registrants' steps go to acme and rival.
	if err := cl.Open("m", stream.Spec{Mux: true, Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterPredicate("m", stream.RegisterSpec{ID: "p", Tenant: "acme", Pred: "sum(x) >= 1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RegisterPredicate("m", stream.RegisterSpec{ID: "q", Tenant: "acme", Pred: "sum(x) >= 2"}); err == nil || !strings.Contains(err.Error(), "limit 1") {
		t.Fatalf("second acme registration under -max-predicates-per-tenant 1: err %v, want the limit named", err)
	}
	if _, err := cl.RegisterPredicate("m", stream.RegisterSpec{ID: "r", Tenant: "rival", Pred: "sum(x) >= 2"}); err != nil {
		t.Fatalf("rival registration refused: %v", err)
	}
	if _, err := cl.Append("m", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}, Var: "x", Val: 1},
		{Proc: 1, VC: []int64{0, 1}, Var: "x", Val: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.ClosePredicates("m"); err != nil {
		t.Fatal(err)
	}

	var view struct {
		TotalCPUNanos int64           `json:"total_cpu_nanos"`
		Scopes        []obs.ScopeCost `json:"scopes"`
		HotPredicates []obs.PredCost  `json:"hot_predicates"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, tenantsURL)), &view); err != nil {
		t.Fatalf("/debug/tenants does not parse: %v", err)
	}
	events := map[string]int64{}
	// Only the mux registrants are sum predicates; the plain sessions
	// step in their tenants' conjunctive scopes.
	sumSteps := map[string]int64{}
	for _, s := range view.Scopes {
		events[s.Tenant] += s.Events
		if s.Family == "sum" {
			sumSteps[s.Tenant] += s.Steps
		}
	}
	if events["acme"] != 4 || events["rival"] != 2 {
		t.Fatalf("per-tenant events: got %v, want acme=4 rival=2", events)
	}
	if sumSteps["acme"] <= 0 || sumSteps["rival"] <= 0 {
		t.Errorf("mux registrants' steps not attributed to their tenants: %v", sumSteps)
	}
	if view.TotalCPUNanos <= 0 {
		t.Errorf("total CPU not attributed: %d", view.TotalCPUNanos)
	}
	// The hot-predicate table names each registrant under its own tenant;
	// the registration the cap refused never stepped.
	hot := map[string]obs.PredCost{}
	for _, p := range view.HotPredicates {
		hot[p.ID] = p
	}
	if p, r := hot["p"], hot["r"]; p.Tenant != "acme" || r.Tenant != "rival" ||
		p.Family != "sum" || r.Family != "sum" || p.Steps <= 0 || r.Steps <= 0 {
		t.Errorf("hot predicates p=%+v r=%+v, want sum registrants of acme and rival with steps", p, r)
	}
	if _, ok := hot["q"]; ok {
		t.Errorf("refused registration q in the hot predicates: %v", view.HotPredicates)
	}

	text := httpGet(t, tenantsURL+"?format=text&k=5")
	for _, want := range []string{"TENANT", "acme", "rival"} {
		if !strings.Contains(text, want) {
			t.Errorf("text view missing %q:\n%s", want, text)
		}
	}
	if resp, err := http.Get(tenantsURL + "?k=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bogus k: status %d, want 400", resp.StatusCode)
		}
	}

	body := httpGet(t, metricsURL)
	if !strings.Contains(body, "gpd_runtime_goroutines") {
		t.Error("metrics missing runtime self-telemetry (gpd_runtime_goroutines)")
	}
	if !strings.Contains(body, `gpd_mux_registered_predicates{tenant="rival"}`) {
		t.Error("metrics missing the per-tenant registration gauge for rival")
	}

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down on signal")
	}
}

// TestSLOBreachLoggedAndDumped arms a 1ns verdict-latency budget, runs
// one detecting session, and checks the warn log names the rule and
// dump path, the dump file appears, and the breach counter is exported.
func TestSLOBreachLoggedAndDumped(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.json")
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{
			"-addr", "127.0.0.1:0", "-stats", "127.0.0.1:0",
			"-slo-verdict-latency", "1ns", "-slo-dump", dump,
		}, pw, stop)
		pw.CloseWithError(err)
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	var addr, metricsURL string
	for addr == "" || metricsURL == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if v := slogValue(line, "listening", "addr"); v != "" {
			addr = v
		}
		if v := slogValue(line, "metrics", "url"); v != "" {
			metricsURL = v
		}
	}
	if addr == "" || metricsURL == "" {
		t.Fatalf("startup lines not seen (addr=%q metrics=%q)", addr, metricsURL)
	}
	breachLine := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, `msg="slo breach"`) {
				select {
				case breachLine <- line:
				default:
				}
			}
		}
	}()

	cl, err := stream.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open("slo", stream.Spec{Pred: "all(x)", Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("slo", []stream.Event{
		{Proc: 0, VC: []int64{1, 0}, Truth: true},
		{Proc: 1, VC: []int64{0, 1}, Truth: true},
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case line := <-breachLine:
		if !strings.Contains(line, "rule=verdict_latency") || !strings.Contains(line, "dump="+dump) {
			t.Errorf("breach log missing rule or dump path: %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no slo breach logged within 5s")
	}
	var fs obs.FlightSnapshot
	raw, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("breach dump not written: %v", err)
	}
	if err := json.Unmarshal(raw, &fs); err != nil || len(fs.Records) == 0 {
		t.Fatalf("breach dump unusable (err %v, %d records)", err, len(fs.Records))
	}
	if body := httpGet(t, metricsURL); !strings.Contains(body,
		`gpd_slo_breaches_total{rule="verdict_latency"} 1`) {
		t.Errorf("metrics missing breach counter:\n%s", body)
	}

	stop <- os.Interrupt
	go io.Copy(io.Discard, pr)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not shut down on signal")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
