//go:build !linux

package crackdb

import (
	"testing"
	"time"
)

// threadCPU reports no thread CPU clock off Linux; the gates that need
// one skip.
func threadCPU(testing.TB, func()) (time.Duration, bool) { return 0, false }
