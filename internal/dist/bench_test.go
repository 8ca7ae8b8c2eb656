package dist

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"otm/internal/storage"
)

// BenchmarkDistributed measures end-to-end distributed throughput: plan
// a generated corpus, run W in-process workers against the HTTP API, and
// merge. Reported as shards/s and histories/s, so coordination overhead
// reads separately from raw checking speed.
func BenchmarkDistributed(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			const histories = 512
			spec := &GenSpec{N: histories, Seed: 42, Txs: 3, Objs: 2, MaxOps: 3, PStaleRead: 0.3}
			b.ReportAllocs()
			var shards int
			start := time.Now()
			for i := 0; i < b.N; i++ {
				storeURI := fmt.Sprintf("mem://bench-dist-%d-%d", workers, i)
				store, err := storage.Resolve(storeURI)
				if err != nil {
					b.Fatal(err)
				}
				man, err := Plan(store, PlanOptions{Gen: spec, ShardSize: 64})
				if err != nil {
					b.Fatal(err)
				}
				shards = len(man.Shards)
				cp, _ := LoadCheckpoint(store, man)
				c := NewCoordinator(store, man, cp, CoordinatorOptions{StoreURI: storeURI})
				srv := httptest.NewServer(c.Handler())
				var wg sync.WaitGroup
				for j := 0; j < workers; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						w := &Worker{Coordinator: srv.URL, Name: fmt.Sprintf("b%d", j)}
						if _, err := w.Run(context.Background()); err != nil {
							b.Errorf("worker %d: %v", j, err)
						}
					}(j)
				}
				if err := c.MergeTo(io.Discard); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				srv.Close()
			}
			secs := time.Since(start).Seconds()
			b.ReportMetric(float64(b.N*shards)/secs, "shards/s")
			b.ReportMetric(float64(b.N*histories)/secs, "histories/s")
		})
	}
}
