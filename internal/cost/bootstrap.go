package cost

import "proteus/internal/storage"

// The analytic bootstrap supplies cold-start latency estimates (in
// microseconds) before a learned model has enough observations. Constants
// mirror the simulated hardware (internal/disksim, internal/simnet
// defaults) so early estimates have the right shape: rows pay for full-row
// access, columns pay only for touched bytes, disk adds seek + transfer,
// compression discounts bytes, sorted scans discount by selectivity.
const (
	usPerCell      = 0.02  // CPU cost to materialize one cell
	usPerByte      = 0.001 // memory scan cost per byte
	usDiskSeek     = 60.0  // disksim default seek
	usPerDiskByte  = 0.002 // ~500 MB/s
	usNetBase      = 50.0  // simnet default per message
	usPerNetByte   = 0.001 // ~1 GB/s
	usWriteBase    = 0.5
	usPointBase    = 0.3
	usCommitPer    = 5.0
	usPerWaitEntry = 10.0
	rleDiscount    = 0.5
)

func bootstrap(k modelKey, x []float64) float64 {
	switch k.op {
	case OpScan:
		card, inB, outB, sel := x[0], x[1], x[2], x[3]
		var bytes float64
		if k.layout.format == storage.RowFormat {
			// Row scans materialize whole rows regardless of projection.
			bytes = card * inB
		} else {
			bytes = card * (inB*0.3 + outB)
		}
		if k.layout.compressed {
			bytes *= rleDiscount
		}
		if enc := x[4]; enc > 0 {
			// Code-operating kernels skip decoding for the encoded fraction
			// of the scanned bytes.
			bytes *= 1 - 0.3*clamp01(enc)
		}
		us := bytes * usPerByte
		if k.variant == ScanSorted && k.layout.sorted {
			us *= clamp01(sel + 0.05)
		}
		if k.layout.tier == storage.DiskTier {
			us += usDiskSeek + bytes*usPerDiskByte
		}
		return us + card*usPerCell*0.1
	case OpPointRead:
		cells, rowB := x[0], x[1]
		us := usPointBase + cells*usPerCell + rowB*usPerByte
		if k.layout.tier == storage.DiskTier {
			us += usDiskSeek + rowB*usPerDiskByte
		}
		return us
	case OpWrite:
		cells, rowB := x[0], x[1]
		us := usWriteBase + cells*usPerCell
		if k.layout.format == storage.RowFormat {
			us += rowB * usPerByte // whole-row rewrite
		} else {
			us += cells * usPerCell // delta insert
		}
		if k.layout.tier == storage.DiskTier {
			us += 1.0 // buffered: amortized flush cost
		}
		return us
	case OpBulkLoad:
		card, rowB := x[0], x[1]
		us := card * (rowB*usPerByte*2 + usPerCell)
		if k.layout.tier == storage.DiskTier {
			us += usDiskSeek + card*rowB*usPerDiskByte
		}
		if k.layout.sorted {
			us *= 1.5
		}
		return us
	case OpSort:
		card, rowB := x[0], x[1]
		return card * (usPerCell + rowB*usPerByte) * log2(card)
	case OpJoin:
		l, r, out, rowB := x[0], x[1], x[2], x[3]
		return (l+r)*usPerCell*2 + out*(usPerCell+rowB*usPerByte)
	case OpAggregate:
		in, out, rowB := x[0], x[1], x[2]
		return in*(usPerCell+rowB*usPerByte*0.3) + out*usPerCell
	case OpNetwork:
		sent, recv := x[2], x[3]
		return usNetBase + (sent+recv)*usPerNetByte
	case OpLock:
		waiters, recent := x[0], x[1]
		return 0.2 + waiters*recent
	case OpWaitUpdates:
		return x[0] * usPerWaitEntry
	case OpCommit:
		readP, writeP, sites := x[0], x[1], x[2]
		us := usCommitPer * (readP*0.2 + writeP)
		if sites > 1 {
			us += usNetBase * 2 * sites // 2PC round trips
		}
		return us
	}
	return 1
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func log2(v float64) float64 {
	if v < 2 {
		return 1
	}
	n := 0.0
	for v >= 2 {
		v /= 2
		n++
	}
	return n
}
