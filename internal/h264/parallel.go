package h264

import (
	"affectedge/internal/parallel"
)

// MeasureModes runs DecodePipeline over the given modes in parallel,
// returning results in mode order. It is the fan-out core of CompareModes
// and of videosim's -workers flag: the four operating points decode
// independent pipelines, so wall-clock scales down with the pool size while
// every statistic stays bit-identical to a serial run: results are
// written back by index, so output order never depends on scheduling.
func MeasureModes(stream []byte, modes []DecoderMode) ([]*PipelineResult, error) {
	return parallel.Map(len(modes), func(i int) (*PipelineResult, error) {
		return DecodePipeline(stream, modes[i])
	})
}
