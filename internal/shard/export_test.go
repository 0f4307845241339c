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
