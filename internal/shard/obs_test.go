package shard_test

import (
	"sync"
	"testing"

	"crackdb/internal/shard"
)

// TestEnableObservabilityRacesGather: a scrape landing while
// observability is being switched on must see either "off" or a fully
// allocated set of registries — never a published storeObs whose
// per-shard registries are still nil. Run under -race.
func TestEnableObservabilityRacesGather(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := shard.New(shard.Options{Shards: 8})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				s.EnableObservability(1)
			}()
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					s.Gather()
				}
			}()
		}
		close(start)
		wg.Wait()
		if _, ok := s.Gather(); !ok {
			t.Fatal("observability is off after EnableObservability")
		}
	}
}
