package ops

import "time"

// ClusterStatus is the JSON cluster snapshot served at /statusz: the
// topology the master believes in, with enough per-server and per-region
// state to see failovers, splits, and backpressure at a glance.
type ClusterStatus struct {
	Time     time.Time      `json:"time"`
	Master   MasterStatus   `json:"master"`
	Servers  []ServerStatus `json:"servers"`
	Regions  []RegionStatus `json:"regions"`
	Journal  JournalStatus  `json:"journal"`
	Draining []string       `json:"draining,omitempty"`
}

// MasterStatus identifies the control plane: which master currently leads,
// at which fencing epoch, and which hot standbys are waiting to take over.
type MasterStatus struct {
	Host     string   `json:"host"`
	Epoch    uint64   `json:"epoch"`
	Standbys []string `json:"standbys,omitempty"`
}

// ServerStatus is one region server's liveness and load.
type ServerStatus struct {
	Host    string `json:"host"`
	Live    bool   `json:"live"`
	Fenced  bool   `json:"fenced,omitempty"`
	Regions int    `json:"regions"`
	// MemstoreBytes is the summed memstore size across hosted regions;
	// Watermark classifies it against the server's configured low/high
	// watermarks: "ok", "low" (deferring), or "high" (rejecting).
	MemstoreBytes int64  `json:"memstore_bytes"`
	Watermark     string `json:"watermark,omitempty"`
}

// RegionStatus is one region's placement and health.
type RegionStatus struct {
	Name   string `json:"name"`
	Table  string `json:"table"`
	Server string `json:"server"`
	Epoch  uint64 `json:"epoch"`
	SizeB  int64  `json:"size_bytes"`
	Cells  int64  `json:"cells"`
	Files  int    `json:"store_files"`
	// WriteLoad is the writes observed since the last janitor pass
	// (non-destructive peek — the janitor's own hot-region counter is
	// unaffected).
	WriteLoad int64           `json:"write_load,omitempty"`
	Replicas  []ReplicaStatus `json:"replicas,omitempty"`
}

// ReplicaStatus is one read replica's placement and lag.
type ReplicaStatus struct {
	Server string `json:"server"`
	// AppliedSeq is the newest primary WAL record (one region batch) the
	// replica has applied; LagSeq is how many records it is behind the
	// primary.
	AppliedSeq uint64 `json:"applied_seq"`
	LagSeq     uint64 `json:"lag_seq"`
}

// JournalStatus summarizes the event journal inside the snapshot.
type JournalStatus struct {
	LastSeq uint64 `json:"last_seq"`
	Len     int    `json:"len"`
	Dropped uint64 `json:"dropped,omitempty"`
}
