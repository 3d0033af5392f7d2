package exec

import "proteus/internal/storage"

// Batch is the columnar execution batch flowing through the scan pipeline.
// The concrete type lives in internal/storage so stores can produce batches
// without importing the executor; exec re-exports it as the canonical name
// operator code uses.
type Batch = storage.Batch

// Vec is one typed column vector of a Batch.
type Vec = storage.Vec
