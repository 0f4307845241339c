package shard

// Hooks for package shard_test, whose tests import packages that import
// shard (internal/sql) and so cannot live in package shard.

// NewTableMeta is the metadata of a table keyed on key.
func NewTableMeta(key string, cols ...string) *tableMeta {
	return &tableMeta{key: key, cols: cols}
}

// RangePart is a range partitioner split at bounds.
func RangePart(bounds ...int64) partitioner { return rangePart{bounds: bounds} }

var (
	Check   = (*tableMeta).check
	Targets = (*tableMeta).targets
	Span    = partitioner.span
)

// TablePartSpec is the routing identity of a table, as a checkpoint
// manifest records it.
func TablePartSpec(s *Store, table string) PartSpec {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[table].part.spec()
}

// RouteKey is the shard a table's partitioner sends key to.
func RouteKey(s *Store, table string, key int64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tables[table].part.route(key)
}
