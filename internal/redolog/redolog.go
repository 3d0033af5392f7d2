// Package redolog provides per-partition, append-only redo logs with
// subscriber offsets — the substrate the paper obtains from Apache Kafka
// (§4.2). Masters append update records on commit; replicas poll from
// their last offset and apply updates lazily. The logs also provide fault
// tolerance: sites recover partitions by replaying from a snapshot offset
// (§4.3).
package redolog

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"proteus/internal/obs"
	"proteus/internal/partition"
	"proteus/internal/schema"
	"proteus/internal/types"
)

// ErrTruncated reports a replay asked to start below the records the topic
// still retains: the copy it builds would miss the reclaimed records.
var ErrTruncated = errors.New("redolog: records reclaimed below the replay offset")

// OpKind is the kind of one logged mutation.
type OpKind uint8

const (
	// OpInsert logs a row insert.
	OpInsert OpKind = iota
	// OpUpdate logs a partial-row update.
	OpUpdate
	// OpDelete logs a row delete.
	OpDelete
)

// Entry is one mutation within a record.
type Entry struct {
	Op   OpKind
	Row  schema.RowID
	Cols []schema.ColID // partition-local; nil for inserts (full row)
	Vals []types.Value
}

// Record is the unit appended on transaction commit: every mutation one
// transaction applied to one partition, stamped with the partition version
// the commit installed.
type Record struct {
	Partition partition.ID
	Version   uint64
	Entries   []Entry
	// Deps is the commit's whole version vector: the version the
	// transaction installed in every partition it wrote, this record's own
	// partition included, letting subscribers enforce consistent
	// snapshots. Every record of one transaction shares the one map, so it
	// is read-only once appended.
	Deps map[partition.ID]uint64
}

// Bytes estimates the record's wire size: what a subscriber's fetch and a
// copy's replay are charged for carrying it.
func (rec *Record) Bytes() int {
	n := 24
	for _, e := range rec.Entries {
		n += 16 + 8*len(e.Cols) + 12*len(e.Vals)
	}
	return n
}

// Broker is an in-process log broker: one topic per partition.
// All methods are safe for concurrent use.
type Broker struct {
	mu     sync.RWMutex
	topics map[partition.ID]*topic

	// Optional observability instruments (SetObs).
	obsAppends    *obs.Counter
	obsPolls      *obs.Counter
	obsPolled     *obs.Counter
	obsTruncated  *obs.Counter
	obsCkpts      *obs.Counter
	obsFolded     *obs.Counter // records folded into checkpoint images
	obsRejected   *obs.Counter // folded records an image could not accept
	obsBacklog    *obs.Gauge   // retained records across all topics
	obsImageRows  *obs.Gauge   // rows held by checkpoint images across all topics
	obsImageBytes *obs.Gauge   // bytes held by checkpoint images' columns
}

// topic is one partition's log and its checkpoint. base is the offset of
// records[0]: offsets are stable across truncation, as with a real log
// broker's log-start offset.
//
// The log and the checkpoint image have a lock each, so that refreshing the
// image never stalls a commit: mu guards base and records and is all that
// Append, AppendBatch, Poll, Hold and Truncate take; ckMu guards ckpt, the
// columns it points at, ckptBytes, kinds and dead. A fold holds ckMu
// throughout and takes mu (read) only to copy the tail's record headers
// out — ckMu before mu, never the reverse.
type topic struct {
	mu      sync.RWMutex
	base    int64
	records []Record
	holds   []*Hold

	ckMu      sync.Mutex
	ckpt      *Checkpoint  // nil until saved or first folded
	ckptBytes int64        // ckpt.Bytes() when it was installed (gauge bookkeeping)
	kinds     []types.Kind // the partition's column kinds, when CreateTopic named them
	dead      bool         // topic deleted: a fold still holding it must not revive the image
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{topics: make(map[partition.ID]*topic)}
}

// SetObs installs broker instruments: redolog.appends, redolog.polls,
// redolog.polled_records, redolog.truncated_records, the redolog.backlog
// gauge (retained records across topics) and the checkpoint instruments —
// redolog.checkpoints (images installed or advanced),
// redolog.checkpoint_folded_records, redolog.checkpoint_fold_rejected
// (records an image could not accept; stays 0 unless log and image
// diverged) and the redolog.checkpoint_image_rows and
// redolog.checkpoint_image_bytes gauges.
func (b *Broker) SetObs(reg *obs.Registry) {
	b.obsAppends = reg.Counter("redolog.appends")
	b.obsPolls = reg.Counter("redolog.polls")
	b.obsPolled = reg.Counter("redolog.polled_records")
	b.obsTruncated = reg.Counter("redolog.truncated_records")
	b.obsCkpts = reg.Counter("redolog.checkpoints")
	b.obsFolded = reg.Counter("redolog.checkpoint_folded_records")
	b.obsRejected = reg.Counter("redolog.checkpoint_fold_rejected")
	b.obsBacklog = reg.Gauge("redolog.backlog")
	b.obsImageRows = reg.Gauge("redolog.checkpoint_image_rows")
	b.obsImageBytes = reg.Gauge("redolog.checkpoint_image_bytes")
}

// CreateTopic ensures a log exists for the partition and tells it the
// partition's column kinds: the columns of a checkpoint image folded up
// from nothing. The broker keeps kinds (read only). A topic told no kinds
// and given no image has no columns, so a fold rejects its inserts.
func (b *Broker) CreateTopic(pid partition.ID, kinds ...types.Kind) {
	t := b.topic(pid)
	if len(kinds) == 0 {
		return
	}
	t.ckMu.Lock()
	t.kinds = kinds
	t.ckMu.Unlock()
}

// DeleteTopic removes a partition's log and checkpoint (after the
// partition is dropped).
func (b *Broker) DeleteTopic(pid partition.ID) {
	b.mu.Lock()
	t := b.topics[pid]
	delete(b.topics, pid)
	b.mu.Unlock()
	if t == nil {
		return
	}
	t.ckMu.Lock()
	t.setCheckpoint(b, nil)
	t.dead = true
	t.ckMu.Unlock()
	if b.obsBacklog != nil {
		t.mu.RLock()
		b.obsBacklog.Add(-int64(len(t.records)))
		t.mu.RUnlock()
	}
}

// Topics snapshots the partition IDs with a log.
func (b *Broker) Topics() []partition.ID {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]partition.ID, 0, len(b.topics))
	for pid := range b.topics {
		out = append(out, pid)
	}
	return out
}

// lookup returns the partition's topic, or nil when it has none.
func (b *Broker) lookup(pid partition.ID) *topic {
	b.mu.RLock()
	t := b.topics[pid]
	b.mu.RUnlock()
	return t
}

// topic returns the partition's topic, creating it on first use. Only the
// writers — Append, AppendBatch and SaveCheckpoint — create topics; every
// reader goes through lookup and treats a missing topic as empty, so a
// read racing a split's or merge's DeleteTopic (or a replica polling a
// retired partition) cannot resurrect the topic.
func (b *Broker) topic(pid partition.ID) *topic {
	t := b.lookup(pid)
	if t != nil {
		return t
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if t = b.topics[pid]; t == nil {
		t = &topic{}
		b.topics[pid] = t
	}
	return t
}

// Append writes a record to the partition's log and returns its offset.
func (b *Broker) Append(rec Record) int64 {
	t := b.topic(rec.Partition)
	t.mu.Lock()
	t.records = append(t.records, rec)
	off := t.base + int64(len(t.records)) - 1
	t.mu.Unlock()
	if b.obsAppends != nil {
		b.obsAppends.Inc()
		b.obsBacklog.Add(1)
	}
	return off
}

// AppendBatch appends a group-commit flush in one pass. Records for the
// same partition must already be in version order; consecutive records for
// one partition share a single topic-lock acquisition, and the instruments
// (append counter, backlog gauge) are updated once per call instead of once
// per record. Callers that interleave partitions should sort the batch
// (stably, to preserve per-partition order) so each topic is locked once.
func (b *Broker) AppendBatch(recs []Record) {
	if len(recs) == 0 {
		return
	}
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Partition == recs[i].Partition {
			j++
		}
		t := b.topic(recs[i].Partition)
		t.mu.Lock()
		t.records = append(t.records, recs[i:j]...)
		t.mu.Unlock()
		i = j
	}
	if b.obsAppends != nil {
		b.obsAppends.Add(int64(len(recs)))
		b.obsBacklog.Add(int64(len(recs)))
	}
}

// Poll returns up to max records starting at offset from. It returns the
// records and the next offset to poll from. Offsets below the truncated
// base resume from the oldest retained record (a log broker's
// out-of-range reset to the log-start offset).
func (b *Broker) Poll(pid partition.ID, from int64, max int) ([]Record, int64) {
	return b.PollAppend(nil, pid, from, max)
}

// PollAppend is Poll appending the records to dst, so a consumer that
// fetches many partitions at once can gather them in one reused buffer.
func (b *Broker) PollAppend(dst []Record, pid partition.ID, from int64, max int) ([]Record, int64) {
	t := b.lookup(pid)
	if t == nil {
		return dst, from
	}
	t.mu.RLock()
	if from < t.base {
		from = t.base
	}
	end := t.base + int64(len(t.records))
	if from >= end {
		t.mu.RUnlock()
		if b.obsPolls != nil {
			b.obsPolls.Inc()
		}
		return dst, from
	}
	if max > 0 && from+int64(max) < end {
		end = from + int64(max)
	}
	dst = append(dst, t.records[from-t.base:end-t.base]...)
	t.mu.RUnlock()
	if b.obsPolls != nil {
		b.obsPolls.Inc()
		b.obsPolled.Add(end - from)
	}
	return dst, end
}

// EndOffset reports the offset one past the last record.
func (b *Broker) EndOffset(pid partition.ID) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base + int64(len(t.records))
}

// BaseOffset reports the oldest retained offset (the log-start offset).
func (b *Broker) BaseOffset(pid partition.ID) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.base
}

// Retained reports how many records the topic currently holds.
func (b *Broker) Retained(pid partition.ID) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.records))
}

// A Hold keeps a topic's records at and above its offset from truncation:
// Truncate never reclaims past the lowest hold, so the broker's retention
// honours what its readers still need, as Kafka's honours its consumers'
// committed offsets. A copy being built holds the log from before it reads
// the checkpoint until it has subscribed, and every subscription holds it
// at the offset it has consumed to.
type Hold struct {
	t  *topic // nil when the topic does not exist: the hold keeps nothing
	at atomic.Int64
}

// Hold registers a hold on pid's log at offset at.
func (b *Broker) Hold(pid partition.ID, at int64) *Hold {
	h := &Hold{t: b.lookup(pid)}
	h.at.Store(at)
	if h.t != nil {
		h.t.mu.Lock()
		h.t.holds = append(h.t.holds, h)
		h.t.mu.Unlock()
	}
	return h
}

// Advance moves the hold to offset at, releasing the records below it to
// truncation.
func (h *Hold) Advance(at int64) { h.at.Store(at) }

// Release drops the hold; releasing it again does nothing.
func (h *Hold) Release() {
	if h.t == nil {
		return
	}
	h.t.mu.Lock()
	if i := slices.Index(h.t.holds, h); i >= 0 {
		h.t.holds = slices.Delete(h.t.holds, i, i+1)
	}
	h.t.mu.Unlock()
}

// Truncate discards records before the offset (checkpointing). Offsets
// stay stable: the topic keeps a base offset, so later Appends and Polls
// address the same positions as before. The offset is clamped to the
// retained range and below every Hold; the number of records reclaimed is
// returned.
func (b *Broker) Truncate(pid partition.ID, before int64) int64 {
	t := b.lookup(pid)
	if t == nil {
		return 0
	}
	t.mu.Lock()
	end := t.base + int64(len(t.records))
	before = min(before, end)
	for _, h := range t.holds {
		before = min(before, h.at.Load())
	}
	drop := before - t.base
	if drop <= 0 {
		t.mu.Unlock()
		return 0
	}
	// Reslice: the retained tail stays where it is. The dropped slots are
	// zeroed so the backing array no longer reaches the reclaimed records'
	// entries, and the array itself is replaced only once it is mostly
	// slack (otherwise the next growing append replaces it anyway).
	clear(t.records[:drop])
	t.records = t.records[drop:]
	if cap(t.records) > 2*len(t.records) {
		t.records = append(make([]Record, 0, len(t.records)), t.records...)
	}
	t.base = before
	t.mu.Unlock()
	if b.obsTruncated != nil {
		b.obsTruncated.Add(drop)
		b.obsBacklog.Add(-drop)
	}
	return drop
}

// ReplayInto applies every retained record from offset `from` whose
// version the partition has not yet installed — the tail a copy built
// from the checkpoint replays. It returns the records' wire bytes (every
// record read, as a subscriber's fetch of them is charged) and the offset
// replay reached (the copy's subscription point). It fails with
// ErrTruncated, applying nothing, when records at or above from have been
// reclaimed.
func (b *Broker) ReplayInto(p *partition.Partition, pid partition.ID, from int64) (int, int64, error) {
	recs, next := b.Poll(pid, from, 0)
	// Poll starts at the base when from lies below it.
	if start := next - int64(len(recs)); start > from {
		return 0, from, fmt.Errorf("%w: partition %d: replay from %d, log starts at %d", ErrTruncated, pid, from, start)
	}
	bytes := 0
	for i := range recs {
		rec := &recs[i]
		bytes += rec.Bytes()
		if rec.Version <= p.Version() {
			continue
		}
		if err := Apply(p, *rec); err != nil {
			return bytes, next, err
		}
	}
	return bytes, next, nil
}

// Apply replays a record's entries into a partition replica. Used by the
// replication layer and by crash recovery.
func Apply(p *partition.Partition, rec Record) error {
	for _, e := range rec.Entries {
		var err error
		switch e.Op {
		case OpInsert:
			err = p.Insert(schema.Row{ID: e.Row, Vals: e.Vals}, rec.Version)
		case OpUpdate:
			err = p.Update(e.Row, e.Cols, e.Vals, rec.Version)
		case OpDelete:
			err = p.Delete(e.Row, rec.Version)
		}
		if err != nil {
			return fmt.Errorf("redolog: apply %v to partition %d: %w", e.Op, rec.Partition, err)
		}
	}
	p.SetVersion(rec.Version)
	return nil
}
