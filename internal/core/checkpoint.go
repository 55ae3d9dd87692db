package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/codec"
	"repro/internal/sim"
)

// Checkpoint encoding constants. A checkpoint is the magic and a version
// in front of one codec CRC frame, so truncation and corruption are
// detected before any field is trusted. See docs/robustness.md for the
// body layout.
const (
	ckptMagic = "CKP1"

	// CheckpointVersion is the current checkpoint format version;
	// DecodeCheckpoint rejects any other.
	CheckpointVersion uint16 = 1
)

// LeaseSnapshot is one island's lease state inside a checkpoint. Times are
// absolute sim-times; RestoreSnapshot re-bases lastHeard to the restore
// instant (a promoted controller grants a grace period rather than
// expiring every lease on arithmetic from a dead primary's clock) but
// preserves deadAt so rejoin hysteresis still sees the real outage length.
type LeaseSnapshot struct {
	Island    string
	State     LeaseState
	LastHeard sim.Time
	DeadAt    sim.Time
}

// EpochSnapshot is one island's actuation epoch inside a checkpoint.
type EpochSnapshot struct {
	Island string
	Epoch  uint64
}

// BaselineSnapshot is one entity's safe-harbor weight inside a checkpoint.
type BaselineSnapshot struct {
	Entity int
	Weight int
}

// CtrlCounters is the controller's counter block inside a checkpoint. A
// promoted controller restores them so run-level robustness reporting
// survives a failover (modulo the window between the last checkpoint and
// the crash, which is honestly lost).
type CtrlCounters struct {
	Routed         uint64
	Unroutable     [unrouteReasonCount]uint64
	ShedTunes      uint64
	BoostTunes     uint64
	Heartbeats     uint64
	StrayAcks      uint64
	LeaseExpiries  uint64
	Rejoins        uint64
	FlapSuppressed uint64
}

// Checkpoint is one versioned snapshot of the controller's coordination
// state: everything a standby needs to take over routing without replaying
// the run — the island registry, entity registry, lease table, actuation
// epochs, overload-control counters, actuation baselines, and the reliable
// endpoints' sequence cursors.
type Checkpoint struct {
	Seq  uint64   // monotonically increasing checkpoint number
	Term uint64   // election term the primary held when writing it
	T    sim.Time // sim-time of the snapshot

	Islands   []string
	Entities  []Entity
	Leases    []LeaseSnapshot
	Epochs    []EpochSnapshot
	Counters  CtrlCounters
	Baselines []BaselineSnapshot
	Endpoints []EndpointSeqState
}

// Snapshot captures the controller's coordination state. Seq, Term, T,
// Baselines, and Endpoints belong to the replication layer and are left for
// the caller (ControllerGroup) to fill. Every slice is sorted so the same
// state always encodes to the same bytes.
func (c *Controller) Snapshot() *Checkpoint {
	ck := &Checkpoint{
		Islands: c.Islands(),
		Counters: CtrlCounters{
			Routed:         c.routed,
			Unroutable:     c.unroutable,
			ShedTunes:      c.shedTunes,
			BoostTunes:     c.boostTunes,
			Heartbeats:     c.leases.heartbeats,
			StrayAcks:      c.strayAcks,
			LeaseExpiries:  c.leases.expiries,
			Rejoins:        c.leases.rejoins,
			FlapSuppressed: c.leases.flaps,
		},
	}
	ids := make([]int, 0, len(c.entities))
	for id := range c.entities {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ck.Entities = make([]Entity, 0, len(ids))
	for _, id := range ids {
		ck.Entities = append(ck.Entities, c.entities[id])
	}
	for _, name := range ck.Islands {
		if l, ok := c.leases.byIsland[name]; ok {
			ck.Leases = append(ck.Leases, LeaseSnapshot{
				Island: name, State: l.state, LastHeard: l.lastHeard, DeadAt: l.deadAt,
			})
		}
		if ep, ok := c.epochs[name]; ok {
			ck.Epochs = append(ck.Epochs, EpochSnapshot{Island: name, Epoch: ep})
		}
	}
	return ck
}

// RestoreSnapshot loads checkpointed state into a freshly built controller
// (islands and entities must already be registered from the replicated
// wiring registry; the checkpoint's own lists are used for validation by
// the caller). Lease lastHeard times are re-based to now — a grace period,
// not amnesia: state and deadAt are preserved, so a dead island stays
// quarantined and its eventual rejoin still clears hysteresis.
func (c *Controller) RestoreSnapshot(ck *Checkpoint, now sim.Time) {
	c.routed = ck.Counters.Routed
	c.unroutable = ck.Counters.Unroutable
	c.shedTunes = ck.Counters.ShedTunes
	c.boostTunes = ck.Counters.BoostTunes
	c.leases.heartbeats = ck.Counters.Heartbeats
	c.strayAcks = ck.Counters.StrayAcks
	c.leases.expiries = ck.Counters.LeaseExpiries
	c.leases.rejoins = ck.Counters.Rejoins
	c.leases.flaps = ck.Counters.FlapSuppressed
	for _, ls := range ck.Leases {
		c.leases.byIsland[ls.Island] = &lease{lastHeard: now, state: ls.State, deadAt: ls.DeadAt}
	}
	for _, es := range ck.Epochs {
		c.epochs[es.Island] = es.Epoch
	}
}

// AppendCheckpoint appends ck's encoding to buf and returns the extended
// slice. Layout: magic, version (LE uint16), then one codec CRC frame
// whose payload is the body — uvarint/varint fields in struct order,
// strings length-prefixed.
func AppendCheckpoint(buf []byte, ck *Checkpoint) []byte {
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, CheckpointVersion)
	return codec.AppendFrame(buf, appendCheckpointBody(nil, ck))
}

func appendCheckpointBody(buf []byte, ck *Checkpoint) []byte {
	buf = binary.AppendUvarint(buf, ck.Seq)
	buf = binary.AppendUvarint(buf, ck.Term)
	buf = binary.AppendVarint(buf, int64(ck.T))

	buf = binary.AppendUvarint(buf, uint64(len(ck.Islands)))
	for _, n := range ck.Islands {
		buf = codec.AppendString(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Entities)))
	for _, e := range ck.Entities {
		buf = binary.AppendVarint(buf, int64(e.ID))
		buf = codec.AppendString(buf, e.Name)
		buf = codec.AppendString(buf, e.Home)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Leases)))
	for _, l := range ck.Leases {
		buf = codec.AppendString(buf, l.Island)
		buf = binary.AppendUvarint(buf, uint64(l.State))
		buf = binary.AppendVarint(buf, int64(l.LastHeard))
		buf = binary.AppendVarint(buf, int64(l.DeadAt))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Epochs)))
	for _, e := range ck.Epochs {
		buf = codec.AppendString(buf, e.Island)
		buf = binary.AppendUvarint(buf, e.Epoch)
	}
	buf = binary.AppendUvarint(buf, ck.Counters.Routed)
	for _, u := range ck.Counters.Unroutable {
		buf = binary.AppendUvarint(buf, u)
	}
	buf = binary.AppendUvarint(buf, ck.Counters.ShedTunes)
	buf = binary.AppendUvarint(buf, ck.Counters.BoostTunes)
	buf = binary.AppendUvarint(buf, ck.Counters.Heartbeats)
	buf = binary.AppendUvarint(buf, ck.Counters.StrayAcks)
	buf = binary.AppendUvarint(buf, ck.Counters.LeaseExpiries)
	buf = binary.AppendUvarint(buf, ck.Counters.Rejoins)
	buf = binary.AppendUvarint(buf, ck.Counters.FlapSuppressed)
	buf = binary.AppendUvarint(buf, uint64(len(ck.Baselines)))
	for _, b := range ck.Baselines {
		buf = binary.AppendVarint(buf, int64(b.Entity))
		buf = binary.AppendVarint(buf, int64(b.Weight))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Endpoints)))
	for _, ep := range ck.Endpoints {
		buf = codec.AppendString(buf, ep.Name)
		buf = binary.AppendUvarint(buf, ep.NextSeq)
		buf = binary.AppendUvarint(buf, ep.Floor)
		buf = binary.AppendUvarint(buf, ep.Expected)
	}
	return buf
}

// DecodeCheckpoint parses an encoded checkpoint, verifying magic, version,
// framing, and CRC before any field is trusted.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	outer := codec.NewReader("core: checkpoint", data)
	outer.Magic(ckptMagic)
	outer.Version(CheckpointVersion, "checkpoint")
	r := outer.Frame()
	if outer.Err() == nil && outer.Remaining() != 0 {
		outer.Failf("body length %d, have %d bytes", r.Remaining(), r.Remaining()+outer.Remaining())
	}
	if err := outer.Err(); err != nil {
		return nil, err
	}

	ck := &Checkpoint{Seq: r.Uvarint(), Term: r.Uvarint(), T: sim.Time(r.Varint())}
	for n := r.Count(); n > 0; n-- {
		ck.Islands = append(ck.Islands, r.Str())
	}
	for n := r.Count(); n > 0; n-- {
		ck.Entities = append(ck.Entities, Entity{ID: int(r.Varint()), Name: r.Str(), Home: r.Str()})
	}
	for n := r.Count(); n > 0; n-- {
		ls := LeaseSnapshot{
			Island:    r.Str(),
			State:     LeaseState(r.Uvarint()),
			LastHeard: sim.Time(r.Varint()),
			DeadAt:    sim.Time(r.Varint()),
		}
		if ls.State < LeaseAlive || ls.State > LeaseDead {
			r.Failf("lease %q has unknown state %d", ls.Island, int(ls.State))
		}
		ck.Leases = append(ck.Leases, ls)
	}
	for n := r.Count(); n > 0; n-- {
		ck.Epochs = append(ck.Epochs, EpochSnapshot{Island: r.Str(), Epoch: r.Uvarint()})
	}
	ck.Counters.Routed = r.Uvarint()
	for i := range ck.Counters.Unroutable {
		ck.Counters.Unroutable[i] = r.Uvarint()
	}
	ck.Counters.ShedTunes = r.Uvarint()
	ck.Counters.BoostTunes = r.Uvarint()
	ck.Counters.Heartbeats = r.Uvarint()
	ck.Counters.StrayAcks = r.Uvarint()
	ck.Counters.LeaseExpiries = r.Uvarint()
	ck.Counters.Rejoins = r.Uvarint()
	ck.Counters.FlapSuppressed = r.Uvarint()
	for n := r.Count(); n > 0; n-- {
		ck.Baselines = append(ck.Baselines, BaselineSnapshot{Entity: int(r.Varint()), Weight: int(r.Varint())})
	}
	for n := r.Count(); n > 0; n-- {
		ck.Endpoints = append(ck.Endpoints, EndpointSeqState{
			Name: r.Str(), NextSeq: r.Uvarint(), Floor: r.Uvarint(), Expected: r.Uvarint(),
		})
	}
	if r.Err() == nil && r.Remaining() != 0 {
		r.Failf("%d trailing bytes", r.Remaining())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return ck, nil
}
