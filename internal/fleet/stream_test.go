package fleet

import (
	"testing"

	"affectedge/internal/parallel"
)

// TestChunkedIngestFingerprint pins the streaming-ingest contract: a run
// whose observations travel through the bounded per-shard FIFO in tiny
// fragments and whose video probes decode progressively must fingerprint
// identically to the whole-buffer feed, and the (unfingerprinted) video
// counters must match too. Covers several chunk granularities, including
// one smaller than a float64 and one larger than any probe bitstream.
func TestChunkedIngestFingerprint(t *testing.T) {
	base := detCfg()
	base.VideoEvery = 10
	whole, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if whole.VideoDecodes == 0 {
		t.Fatal("probe never ran; test misconfigured")
	}
	for _, chunk := range []int{1, 8, 64, 4096, 1 << 20} {
		cfg := base
		cfg.ChunkBytes = chunk
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.Fingerprint(), whole.Fingerprint(); got != want {
			t.Fatalf("chunk %d: fingerprint %s != whole-buffer %s\nchunked %+v\nwhole   %+v", chunk, got, want, st, whole)
		}
		if st.VideoDecodes != whole.VideoDecodes || st.VideoFrames != whole.VideoFrames ||
			st.VideoConcealed != whole.VideoConcealed {
			t.Fatalf("chunk %d: video counters (%d, %d, %d) != whole-buffer (%d, %d, %d)",
				chunk, st.VideoDecodes, st.VideoFrames, st.VideoConcealed,
				whole.VideoDecodes, whole.VideoFrames, whole.VideoConcealed)
		}
	}
}

// TestChunkedIngestAcrossWorkers extends the worker-count determinism
// contract to chunked mode: per-shard FIFOs and stream decoders are owned
// by whichever goroutine holds the shard, so parallelism stays invisible.
func TestChunkedIngestAcrossWorkers(t *testing.T) {
	cfg := detCfg()
	cfg.VideoEvery = 17
	cfg.ChunkBytes = 24
	fps := map[int]string{}
	for _, workers := range []int{1, 4} {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		st, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fps[workers] = st.Fingerprint()
	}
	if fps[1] != fps[4] {
		t.Fatalf("chunked fingerprints diverge across worker counts: %v", fps)
	}
}
