package tripled

import "repro/internal/assoc"

// Conn is the store-client surface the pipeline, daemon, and load
// tools program against: a study publishes its D4M tables
// (PublishAssoc) and reads a snapshot's back whole (FetchAssoc) and a
// month's as its row keys (FetchKeys), the daemon ledgers with Put, and
// the load tools add point reads, batches and the degree table. It is satisfied
// both by the single-connection *Client and by the replicated cluster
// client (internal/tripled/cluster), so one Config.StoreAddr string can
// name either a single server or a consistent-hash cluster without the
// callers changing shape.
//
// Implementations follow the *Client contract: not safe for concurrent
// use — one Conn per goroutine.
type Conn interface {
	Put(row, col string, v assoc.Value) error
	Get(row, col string) (assoc.Value, error)
	PutBatch(cells []Cell) error
	TopRowsByDegree(k int) ([]RowDegree, error)
	PublishAssoc(prefix string, a *assoc.Assoc, batchSize int) error
	FetchAssoc(prefix string, pageRows int) (*assoc.Assoc, error)
	FetchKeys(prefix string, pageRows int) ([]string, error)
	Close() error
}

// *Client implements Conn.
var _ Conn = (*Client)(nil)
