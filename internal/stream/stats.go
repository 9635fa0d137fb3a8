package stream

// Stats surface: every counter the engine maintains is exported through
// Snapshot, which is lock-free for the shard workers (they publish via
// atomics) and therefore safe to poll from a stats endpoint at any rate.

// SessionStats is the per-session counter block.
type SessionStats struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Tenant    string `json:"tenant,omitempty"` // owning tenant (cost attribution scope)
	Shard     int    `json:"shard"`
	Ingested  uint64 `json:"ingested"`  // events handed to the session
	Delivered int64  `json:"delivered"` // events causally delivered
	Holdback  int    `json:"holdback"`  // buffered out-of-order events
	Window    int    `json:"window"`    // detector window (unpruned state)
	Flushes   int    `json:"flushes"`   // detector flushes
	Possibly  bool   `json:"possibly"`  // latched verdict
	Error     string `json:"error,omitempty"`

	// Multiplexed sessions only: predicate counts and routing economy.
	Registered int   `json:"registered,omitempty"` // predicates registered
	Active     int   `json:"active,omitempty"`     // predicates still stepping
	Steps      int64 `json:"steps,omitempty"`      // detector steps taken
	Skipped    int64 `json:"skipped,omitempty"`    // steps avoided by relevance routing

	// Sliced sessions only: incremental-slice memory economy.
	SliceRetained  int   `json:"slice_retained,omitempty"`  // frontier events held now
	SliceCompacted int64 `json:"slice_compacted,omitempty"` // history events freed so far
}

// ShardStats is the per-shard counter block.
type ShardStats struct {
	Shard          int    `json:"shard"`
	Sessions       int    `json:"sessions"`         // currently open
	Frames         uint64 `json:"frames"`           // mailbox messages processed
	Events         uint64 `json:"events"`           // events ingested
	Batches        uint64 `json:"batches"`          // mailbox drains
	DroppedFrames  uint64 `json:"dropped_frames"`   // frames shed under overload
	DroppedEvents  uint64 `json:"dropped_events"`   // events inside shed frames
	QueueHighWater int    `json:"queue_high_water"` // deepest the mailbox has been
	Detections     uint64 `json:"detections"`       // sessions whose verdict latched true
}

// Snapshot is a point-in-time view of the whole engine.
type Snapshot struct {
	Shards     []ShardStats   `json:"shards"`
	Sessions   []SessionStats `json:"sessions"`
	Events     uint64         `json:"events"`     // total ingested
	Dropped    uint64         `json:"dropped"`    // total dropped frames
	Detections uint64         `json:"detections"` // total latched verdicts

	// Multiplexing control plane: predicates currently registered across
	// every multiplexed session, total and per tenant.
	Predicates int            `json:"predicates,omitempty"`
	Tenants    map[string]int `json:"tenants,omitempty"`
}
