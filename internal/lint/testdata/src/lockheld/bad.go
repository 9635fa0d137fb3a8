package lockheld

import (
	"net"
	"sync"
	"time"
)

type srv struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	conns map[net.Conn]struct{}
	ch    chan int
}

func (s *srv) sendHeld() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while holding srv\.mu`
	s.mu.Unlock()
}

func (s *srv) recvHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := <-s.ch // want `channel receive while holding srv\.mu`
	_ = v
}

func (s *srv) sleepHeld() {
	s.rw.RLock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding srv\.rw`
	s.rw.RUnlock()
}

func (s *srv) closeHeld() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close() // want `net I/O \(Close\) while holding srv\.mu`
	}
	s.mu.Unlock()
}

func (s *srv) selectHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select while holding srv\.mu`
	default:
	}
}

func (s *srv) rangeChanHeld(jobs chan int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := range jobs { // want `range over channel while holding srv\.mu`
		_ = j
	}
}
