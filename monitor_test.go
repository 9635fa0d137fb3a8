package gpd_test

// The in-process Monitor/Probe adapter over the registry's conjunctive
// detector. Reports are synchronous — a probe call returns with the
// verdict already latched — so nothing here waits or sleeps, except the
// goroutine-count check that follows Shutdown.

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gpd "github.com/distributed-predicates/gpd"
)

func monitorDetected(m *gpd.Monitor) bool {
	select {
	case <-m.Detected():
		return true
	default:
		return false
	}
}

func TestMonitorDetectsConcurrentTrueEvents(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	m.Probe(0).Internal(true)
	if monitorDetected(m) || m.Witness() != nil {
		t.Fatal("detected with only one process true")
	}
	m.Probe(1).Internal(true)
	if !monitorDetected(m) {
		t.Fatal("concurrent true events not detected")
	}
	if w := m.Witness(); len(w) != 2 {
		t.Fatalf("witness = %v", w)
	}
}

func TestMonitorIgnoresOrderedTrueEvents(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	p0, p1 := m.Probe(0), m.Probe(1)
	// p0 is true, then sends from a false state; p1 receives and only
	// then turns true. The receive knows of two events on p0, past the
	// true one: the pair is inconsistent and nothing else is true.
	p0.Internal(true)
	stamp := p0.Send(false)
	p1.Receive(stamp, false)
	p1.Internal(true)
	if monitorDetected(m) {
		t.Fatal("ordered true events must not be detected")
	}
	if m.Witness() != nil {
		t.Fatal("witness must be nil")
	}
}

func TestMonitorDetectsAfterElimination(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	p0, p1 := m.Probe(0), m.Probe(1)
	// The first p0 true event is superseded (p1 has seen past it), but
	// a second, concurrent one completes the conjunction.
	p0.Internal(true)
	stamp := p0.Send(false)
	p1.Receive(stamp, false)
	p1.Internal(true)
	p0.Internal(true)
	if !monitorDetected(m) {
		t.Fatal("fresh concurrent true event not detected")
	}
}

// TestMonitorGoroutinePerProcess runs one goroutine per process,
// exchanging stamped messages over Go channels; each becomes true once,
// before any message, so the true events are concurrent and detection
// must fire. Under -race this pins the probes' only shared state.
func TestMonitorGoroutinePerProcess(t *testing.T) {
	const n = 3
	m := gpd.NewMonitor(n, nil)
	defer m.Shutdown()
	chans := make([]chan gpd.VC, n)
	for i := range chans {
		chans[i] = make(chan gpd.VC, n)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			pr := m.Probe(me)
			pr.Internal(false)
			pr.Internal(true) // the conjunct flips true
			stamp := pr.Send(true)
			for j := 0; j < n; j++ {
				if j != me {
					chans[j] <- stamp
				}
			}
			for j := 0; j < n-1; j++ {
				pr.Receive(<-chans[me], true)
			}
		}(i)
	}
	wg.Wait()
	if !monitorDetected(m) {
		t.Fatal("conjunction not detected in goroutine run")
	}
	w := m.Witness()
	if len(w) != n {
		t.Fatalf("witness = %v", w)
	}
	// Pairwise consistent: no entry has seen past another's own event.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && w[j][i] > w[i][i] {
				t.Fatalf("witness not consistent: w[%d]=%v has seen past w[%d]=%v", j, w[j], i, w[i])
			}
		}
	}
}

func TestMonitorWitnessIsCopy(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	m.Probe(0).Internal(true)
	m.Probe(1).Internal(true)
	w := m.Witness()
	w[0][0] = 99
	if m.Witness()[0][0] == 99 {
		t.Fatal("Witness must return a copy")
	}
}

func TestMonitorSendCarriesTruth(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	defer m.Shutdown()
	// A true SEND event is reported like any other true event. The
	// sender stays true while the message is in flight, so it is
	// consistent with the receiver's post-delivery true state.
	stamp := m.Probe(0).Send(true)
	m.Probe(1).Receive(stamp, true)
	if !monitorDetected(m) {
		t.Fatal("send-reported truth did not participate in detection")
	}
}

func TestMonitorShutdownIdempotent(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Shutdown()
		}()
	}
	wg.Wait()
	m.Shutdown() // and once more after everything is down
}

// TestMonitorProbesOutliveShutdown: after Shutdown probes keep stamping
// (the application goes on) without blocking, and nothing is reported.
func TestMonitorProbesOutliveShutdown(t *testing.T) {
	m := gpd.NewMonitor(2, []int{0, 1})
	m.Shutdown()
	m.Probe(0).Internal(true)
	stamp := m.Probe(1).Send(true)
	if len(stamp) != 2 || stamp[1] != 1 {
		t.Fatalf("probe stopped stamping after shutdown: %v", stamp)
	}
	if monitorDetected(m) {
		t.Fatal("detection after shutdown")
	}
}

// TestMonitorShutdownDuringReports races Shutdown against probes that
// are still reporting; under -race this pins the stop path, and neither
// side can block the other (a deadlock here is a test timeout).
func TestMonitorShutdownDuringReports(t *testing.T) {
	start := runtime.NumGoroutine()
	m := gpd.NewMonitor(3, nil)
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := m.Probe(p)
			for i := 0; i < 1000; i++ {
				pr.Internal(i%2 == 0)
			}
		}()
	}
	m.Shutdown()
	m.Shutdown()
	wg.Wait()
	// Nothing the monitor or its probes started outlives Shutdown.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, started with %d", runtime.NumGoroutine(), start)
		}
	}
}

// TestNewMonitorRejectsBadInvolved: an involved set that names a process
// twice or outside [0, n) can never be satisfied (one queue would never
// be fed), so construction refuses it instead of never detecting.
func TestNewMonitorRejectsBadInvolved(t *testing.T) {
	for _, tc := range []struct {
		involved []int
		want     string
	}{
		{[]int{0, 0}, "listed twice"},
		{[]int{0, 7}, "out of range"},
		{[]int{-1}, "out of range"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("NewMonitor(2, %v): panic %q, want one saying %q", tc.involved, msg, tc.want)
				}
			}()
			gpd.NewMonitor(2, tc.involved)
		}()
	}
}
