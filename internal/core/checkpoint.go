package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/sim"
)

// Checkpoint encoding constants. The format borrows the flight recorder's
// idioms: a magic + version header, uvarint/varint fields, and a CRC32
// (IEEE) framed body so truncation and corruption are detected before any
// field is trusted. See docs/robustness.md for the layout.
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
// slice. Layout: magic, version (LE uint16), then a uvarint body length,
// CRC32-IEEE of the body (LE uint32), and the body itself — uvarint/varint
// fields in struct order, strings length-prefixed.
func AppendCheckpoint(buf []byte, ck *Checkpoint) []byte {
	body := appendCheckpointBody(nil, ck)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, CheckpointVersion)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

func appendCheckpointBody(buf []byte, ck *Checkpoint) []byte {
	buf = binary.AppendUvarint(buf, ck.Seq)
	buf = binary.AppendUvarint(buf, ck.Term)
	buf = binary.AppendVarint(buf, int64(ck.T))

	buf = binary.AppendUvarint(buf, uint64(len(ck.Islands)))
	for _, n := range ck.Islands {
		buf = appendString(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Entities)))
	for _, e := range ck.Entities {
		buf = binary.AppendVarint(buf, int64(e.ID))
		buf = appendString(buf, e.Name)
		buf = appendString(buf, e.Home)
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Leases)))
	for _, l := range ck.Leases {
		buf = appendString(buf, l.Island)
		buf = binary.AppendUvarint(buf, uint64(l.State))
		buf = binary.AppendVarint(buf, int64(l.LastHeard))
		buf = binary.AppendVarint(buf, int64(l.DeadAt))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ck.Epochs)))
	for _, e := range ck.Epochs {
		buf = appendString(buf, e.Island)
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
		buf = appendString(buf, ep.Name)
		buf = binary.AppendUvarint(buf, ep.NextSeq)
		buf = binary.AppendUvarint(buf, ep.Floor)
		buf = binary.AppendUvarint(buf, ep.Expected)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ckptReader is a bounds-checked cursor over an encoded checkpoint body.
type ckptReader struct {
	buf []byte
	err error
}

func (r *ckptReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("core: checkpoint truncated or corrupt reading %s", what)
	}
}

func (r *ckptReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *ckptReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *ckptReader) string(what string) string {
	n := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.buf)) {
		r.fail(what)
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// count reads a collection length, rejecting values that could not fit in
// the remaining bytes (each element costs at least one byte) so corrupt
// lengths fail fast instead of driving huge allocations.
func (r *ckptReader) count(what string) int {
	n := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// DecodeCheckpoint parses an encoded checkpoint, verifying magic, version,
// framing, and CRC before any field is trusted.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+2 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("core: not a checkpoint (bad magic)")
	}
	data = data[len(ckptMagic):]
	version := binary.LittleEndian.Uint16(data)
	if version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", version, CheckpointVersion)
	}
	data = data[2:]
	bodyLen, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("core: checkpoint truncated reading body length")
	}
	data = data[n:]
	if len(data) < 4 {
		return nil, fmt.Errorf("core: checkpoint truncated reading CRC")
	}
	wantCRC := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if bodyLen != uint64(len(data)) {
		return nil, fmt.Errorf("core: checkpoint body length %d, have %d bytes", bodyLen, len(data))
	}
	if got := crc32.ChecksumIEEE(data); got != wantCRC {
		return nil, fmt.Errorf("core: checkpoint CRC mismatch (want %08x, got %08x)", wantCRC, got)
	}

	r := &ckptReader{buf: data}
	ck := &Checkpoint{
		Seq:  r.uvarint("seq"),
		Term: r.uvarint("term"),
		T:    sim.Time(r.varint("time")),
	}
	for i, n := 0, r.count("islands"); i < n && r.err == nil; i++ {
		ck.Islands = append(ck.Islands, r.string("island"))
	}
	for i, n := 0, r.count("entities"); i < n && r.err == nil; i++ {
		ck.Entities = append(ck.Entities, Entity{
			ID:   int(r.varint("entity id")),
			Name: r.string("entity name"),
			Home: r.string("entity home"),
		})
	}
	for i, n := 0, r.count("leases"); i < n && r.err == nil; i++ {
		ls := LeaseSnapshot{
			Island:    r.string("lease island"),
			State:     LeaseState(r.uvarint("lease state")),
			LastHeard: sim.Time(r.varint("lease lastHeard")),
			DeadAt:    sim.Time(r.varint("lease deadAt")),
		}
		if r.err == nil && (ls.State < LeaseAlive || ls.State > LeaseDead) {
			return nil, fmt.Errorf("core: checkpoint lease %q has unknown state %d", ls.Island, int(ls.State))
		}
		ck.Leases = append(ck.Leases, ls)
	}
	for i, n := 0, r.count("epochs"); i < n && r.err == nil; i++ {
		ck.Epochs = append(ck.Epochs, EpochSnapshot{
			Island: r.string("epoch island"),
			Epoch:  r.uvarint("epoch"),
		})
	}
	ck.Counters.Routed = r.uvarint("routed")
	for i := range ck.Counters.Unroutable {
		ck.Counters.Unroutable[i] = r.uvarint("unroutable")
	}
	ck.Counters.ShedTunes = r.uvarint("shedTunes")
	ck.Counters.BoostTunes = r.uvarint("boostTunes")
	ck.Counters.Heartbeats = r.uvarint("heartbeats")
	ck.Counters.StrayAcks = r.uvarint("strayAcks")
	ck.Counters.LeaseExpiries = r.uvarint("leaseExpiries")
	ck.Counters.Rejoins = r.uvarint("rejoins")
	ck.Counters.FlapSuppressed = r.uvarint("flapSuppressed")
	for i, n := 0, r.count("baselines"); i < n && r.err == nil; i++ {
		ck.Baselines = append(ck.Baselines, BaselineSnapshot{
			Entity: int(r.varint("baseline entity")),
			Weight: int(r.varint("baseline weight")),
		})
	}
	for i, n := 0, r.count("endpoints"); i < n && r.err == nil; i++ {
		ck.Endpoints = append(ck.Endpoints, EndpointSeqState{
			Name:     r.string("endpoint name"),
			NextSeq:  r.uvarint("endpoint nextSeq"),
			Floor:    r.uvarint("endpoint floor"),
			Expected: r.uvarint("endpoint expected"),
		})
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("core: checkpoint has %d trailing bytes", len(r.buf))
	}
	return ck, nil
}
