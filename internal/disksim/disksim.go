// Package disksim provides a simulated block storage device standing in for
// the 1 TB hard disks of the paper's testbed. The simulation preserves the
// three properties the paper's disk tier contributes to system behaviour:
// serialized (not directly addressable) data, block-access latency, and a
// capacity limit that triggers the ASA's storage-pressure responses
// (§5.3.2). Latency is modelled as seek + size/throughput and charged by
// sleeping, so disk-resident layouts are measurably slower than memory.
package disksim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/vclock"
)

// BlockID names one stored extent on a device.
type BlockID int64

// ErrCapacity is returned when a write would exceed the device capacity.
var ErrCapacity = errors.New("disksim: device capacity exceeded")

// ErrNoBlock is returned when reading or freeing an unknown block.
var ErrNoBlock = errors.New("disksim: no such block")

// Config sets the performance envelope of a simulated device.
type Config struct {
	// Capacity in bytes; 0 means unlimited.
	Capacity int64
	// SeekLatency is charged once per read or write.
	SeekLatency time.Duration
	// BytesPerSecond is the sequential transfer rate; 0 disables the
	// transfer-time charge.
	BytesPerSecond float64
}

// DefaultConfig models a modest HDD scaled for microsecond-scale tests:
// 60 us seek, 500 MB/s transfer, unlimited capacity.
func DefaultConfig() Config {
	return Config{SeekLatency: 60 * time.Microsecond, BytesPerSecond: 500 << 20}
}

// Device is a simulated block device. It is safe for concurrent use.
type Device struct {
	cfg Config
	clk vclock.Clock

	mu     sync.Mutex
	blocks map[BlockID][]byte
	used   int64
	nextID BlockID
	reads  int64
	writes int64
}

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	return &Device{cfg: cfg, clk: vclock.Wall{}, blocks: make(map[BlockID][]byte)}
}

// SetClock installs the clock access charges sleep on. Install before
// I/O starts (cluster.New does); nil restores the wall clock.
func (d *Device) SetClock(c vclock.Clock) {
	d.clk = vclock.OrWall(c)
}

// charge sleeps for the modelled access time of n bytes.
func (d *Device) charge(n int) {
	delay := d.cfg.SeekLatency
	if d.cfg.BytesPerSecond > 0 {
		delay += time.Duration(float64(n) / d.cfg.BytesPerSecond * float64(time.Second))
	}
	if delay > 0 {
		d.clk.Sleep(delay)
	}
}

// Write stores a copy of data as a new block and returns its ID; the
// caller may reuse data afterwards.
func (d *Device) Write(data []byte) (BlockID, error) {
	d.mu.Lock()
	if d.cfg.Capacity > 0 && d.used+int64(len(data)) > d.cfg.Capacity {
		d.mu.Unlock()
		return 0, ErrCapacity
	}
	id := d.nextID
	d.nextID++
	cp := make([]byte, len(data))
	copy(cp, data)
	d.blocks[id] = cp
	d.used += int64(len(cp))
	d.writes++
	d.mu.Unlock()

	d.charge(len(data))
	return id, nil
}

// Rewrite replaces the contents of an existing block with a copy of data.
// Views handed out by earlier reads keep the old contents.
func (d *Device) Rewrite(id BlockID, data []byte) error {
	d.mu.Lock()
	old, ok := d.blocks[id]
	if !ok {
		d.mu.Unlock()
		return ErrNoBlock
	}
	delta := int64(len(data)) - int64(len(old))
	if d.cfg.Capacity > 0 && d.used+delta > d.cfg.Capacity {
		d.mu.Unlock()
		return ErrCapacity
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	d.blocks[id] = cp
	d.used += delta
	d.writes++
	d.mu.Unlock()

	d.charge(len(data))
	return nil
}

// Read returns the block's contents as a read-only view: no copy is made.
// Blocks are immutable once stored — Write and Rewrite store fresh copies
// and Free only forgets the block — so the view keeps its bytes whatever
// happens to the block afterwards. Callers must not write through it; its
// capacity ends at its length, so an append reallocates.
func (d *Device) Read(id BlockID) ([]byte, error) {
	d.mu.Lock()
	data, ok := d.blocks[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNoBlock
	}
	d.reads++
	d.mu.Unlock()

	d.charge(len(data))
	return data[:len(data):len(data)], nil
}

// ReadRange returns data[off:off+n] of the block as a read-only view, as
// Read does, charging only for the bytes transferred (block-based point
// reads, §4.1.1).
func (d *Device) ReadRange(id BlockID, off, n int) ([]byte, error) {
	d.mu.Lock()
	data, ok := d.blocks[id]
	if !ok {
		d.mu.Unlock()
		return nil, ErrNoBlock
	}
	if off < 0 || n < 0 || off+n > len(data) {
		d.mu.Unlock()
		return nil, errors.New("disksim: read out of range")
	}
	d.reads++
	d.mu.Unlock()

	d.charge(n)
	return data[off : off+n : off+n], nil
}

// Free releases a block.
func (d *Device) Free(id BlockID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, ok := d.blocks[id]
	if !ok {
		return ErrNoBlock
	}
	d.used -= int64(len(data))
	delete(d.blocks, id)
	return nil
}

// Generation is the blocks of one image a store has written to a device,
// reference counted: the store holds one reference while the image is
// current and each reader pins another for as long as it reads, so a
// store that swaps in a new image frees the old one's blocks only after
// its last reader is done. Both disk stores keep their images this way.
type Generation struct {
	dev    *Device
	blocks []BlockID
	refs   atomic.Int32
}

// Init makes g the generation of blocks on dev, holding the store's
// reference.
func (g *Generation) Init(dev *Device, blocks ...BlockID) {
	g.dev, g.blocks = dev, blocks
	g.refs.Store(1)
}

// Block returns the generation's i-th block, in the order Init was given
// them.
func (g *Generation) Block(i int) BlockID { return g.blocks[i] }

// Pin takes a reader's reference. The caller holds whatever guards the
// store's pointer to g, so the store cannot drop its reference between the
// reader finding g and pinning it.
func (g *Generation) Pin() { g.refs.Add(1) }

// Unpin drops one reference, a reader's or the store's; the last one frees
// the blocks.
func (g *Generation) Unpin() {
	if g.refs.Add(-1) > 0 {
		return
	}
	for _, b := range g.blocks {
		_ = g.dev.Free(b) // fails only for an unknown block; each is freed once
	}
}

// Used reports the bytes currently stored.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Capacity reports the configured capacity (0 = unlimited).
func (d *Device) Capacity() int64 { return d.cfg.Capacity }

// Counters reports cumulative reads and writes.
func (d *Device) Counters() (reads, writes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.writes
}
