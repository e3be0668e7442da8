package h264

import "fmt"

// refDecoder is the per-4x4-block decoder from before the
// macroblock-granular rewrite (the bits_ref_test.go pattern): every luma
// block, skip macroblocks included, is predicted into a Block4 (through
// predictIntra4Ref and predictInter4Ref), its residual parsed one syntax
// element and one bit at a time (decodeResidualScanRef) and measured on
// its own, run through iqitScanInto whatever its residual, and
// reconstructed through reconstructBlock; the frame is deblocked by
// deblockFrameRef's per-segment scalar filter. It is the oracle
// FuzzDecodeDiff and TestDecodeResizedReference hold the Decoder to:
// same frames, same Activity, same errors.
type refDecoder struct {
	deblock bool

	width, height int
	qp            int
	haveSPS       bool
	havePPS       bool

	lastRef  *Frame
	lastOut  *Frame
	nextNum  int
	activity Activity
}

func (d *refDecoder) decodeStream(stream []byte) ([]*Frame, error) {
	units, err := SplitStream(stream)
	if err != nil {
		return nil, err
	}
	var out []*Frame
	for _, u := range units {
		out, err = d.decodeNAL(u, out)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *refDecoder) concealTo(n int) []*Frame {
	var out []*Frame
	for d.nextNum < n && d.lastOut != nil {
		out = append(out, d.lastOut.Clone())
		d.activity.Concealed++
		d.activity.FramesOut++
		d.nextNum++
	}
	return out
}

func (d *refDecoder) decodeNAL(u NAL, out []*Frame) ([]*Frame, error) {
	switch u.Type {
	case NALSPS:
		r := NewBitReader(u.Payload)
		mbw, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		mbh, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		if mbw >= 1024 || mbh >= 1024 {
			return nil, fmt.Errorf("%w: SPS dimensions %dx%d MBs unreasonable", ErrBitstream, mbw+1, mbh+1)
		}
		chromaBit, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if chromaBit != 0 {
			return nil, fmt.Errorf("%w: SPS signals chroma; only luma-only streams are supported", ErrBitstream)
		}
		d.width, d.height = (int(mbw)+1)*16, (int(mbh)+1)*16
		d.haveSPS = true
		d.activity.HeaderBits += r.BitsRead()
		return out, nil
	case NALPPS:
		r := NewBitReader(u.Payload)
		qp, err := r.ReadUE()
		if err != nil {
			return nil, err
		}
		if !ValidQP(int(qp)) {
			return nil, fmt.Errorf("%w: PPS QP %d", ErrBitstream, qp)
		}
		d.qp = int(qp)
		d.havePPS = true
		d.activity.HeaderBits += r.BitsRead()
		return out, nil
	case NALSliceIDR, NALSliceNonIDR:
		if !d.haveSPS || !d.havePPS {
			return nil, fmt.Errorf("%w: slice before SPS/PPS", ErrBitstream)
		}
		return d.decodeSlice(u, out)
	default:
		return nil, fmt.Errorf("h264: unsupported NAL type %v", u.Type)
	}
}

func (d *refDecoder) decodeSlice(u NAL, out []*Frame) ([]*Frame, error) {
	r := NewBitReader(u.Payload)
	stVal, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	st := SliceType(stVal)
	if st != SliceI && st != SliceP && st != SliceB {
		return nil, fmt.Errorf("%w: slice type %d", ErrBitstream, stVal)
	}
	numVal, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	frameNum := int(numVal)
	if gap := frameNum - d.nextNum; gap > maxConcealGap {
		return nil, fmt.Errorf("%w: frame number jumps by %d", ErrBitstream, gap)
	}
	d.activity.HeaderBits += r.BitsRead()
	for d.nextNum < frameNum {
		if d.lastOut != nil {
			out = append(out, d.lastOut.Clone())
			d.activity.Concealed++
			d.activity.FramesOut++
		}
		d.nextNum++
	}
	if st != SliceI && d.lastRef == nil {
		return nil, fmt.Errorf("%w: inter slice %d without reference", ErrBitstream, frameNum)
	}
	recon, err := NewFrame(d.width, d.height)
	if err != nil {
		return nil, err
	}
	mbw, mbh := recon.MBWidth(), recon.MBHeight()
	mbs := make([]mbInfo, mbw*mbh)
	for my := 0; my < mbh; my++ {
		for mx := 0; mx < mbw; mx++ {
			info := &mbs[my*mbw+mx]
			if st == SliceI {
				err = d.decodeIntraMB(r, recon, mx, my, info)
			} else {
				err = d.decodeInterMB(r, recon, mx, my, info)
			}
			if err != nil {
				return nil, fmt.Errorf("frame %d MB (%d,%d): %w", frameNum, mx, my, err)
			}
		}
	}
	if d.deblock {
		fst := deblockFrameRef(recon, mbs, d.qp)
		d.activity.DF.edgesConsidered += fst.edgesConsidered
		d.activity.DF.edgesExamined += fst.edgesExamined
		d.activity.DF.edgesFiltered += fst.edgesFiltered
		d.activity.DF.samplesTouch += fst.samplesTouch
	}
	if st != SliceB {
		d.lastRef = recon
	}
	d.lastOut = recon
	d.nextNum = frameNum + 1
	d.activity.FramesOut++
	return append(out, recon), nil
}

func (d *refDecoder) decodeIntraMB(r *BitReader, recon *Frame, mx, my int, info *mbInfo) error {
	info.intra = true
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			x, y := mx*16+bx, my*16+by
			before := r.BitsRead()
			modeVal, err := r.ReadUE()
			if err != nil {
				return err
			}
			d.activity.HeaderBits += r.BitsRead() - before
			pred, err := predictIntra4Ref(recon, x, y, IntraMode(modeVal))
			if err != nil {
				return err
			}
			d.activity.IntraBlocks++
			var scan [16]int32
			bits, nz, err := decodeResidualScanRef(r, &scan)
			if err != nil {
				return err
			}
			d.activity.ResidualBits += bits
			if nz > 0 {
				info.coded = true
			}
			var res Block4
			if err := iqitScanInto(&scan, d.qp, &res); err != nil {
				return err
			}
			d.activity.BlocksIQIT++
			reconstructBlock(recon, x, y, pred, res)
		}
	}
	d.activity.CodedMBs++
	return nil
}

func (d *refDecoder) decodeInterMB(r *BitReader, recon *Frame, mx, my int, info *mbInfo) error {
	before := r.BitsRead()
	skip, err := r.ReadBit()
	if err != nil {
		return err
	}
	if skip == 1 {
		d.activity.HeaderBits += r.BitsRead() - before
		d.activity.SkipMBs++
		for by := 0; by < 16; by += 4 {
			for bx := 0; bx < 16; bx += 4 {
				x, y := mx*16+bx, my*16+by
				reconstructBlock(recon, x, y, predictInter4Ref(d.lastRef, x, y, MV{}), Block4{})
				d.activity.InterBlocks++
			}
		}
		return nil
	}
	mvx, err := r.ReadSE()
	if err != nil {
		return err
	}
	mvy, err := r.ReadSE()
	if err != nil {
		return err
	}
	d.activity.HeaderBits += r.BitsRead() - before
	mv := MV{int(mvx), int(mvy)}
	info.mv = mv
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			x, y := mx*16+bx, my*16+by
			pred := predictInter4Ref(d.lastRef, x, y, mv)
			d.activity.InterBlocks++
			var scan [16]int32
			bits, nz, err := decodeResidualScanRef(r, &scan)
			if err != nil {
				return err
			}
			d.activity.ResidualBits += bits
			if nz > 0 {
				info.coded = true
			}
			var res Block4
			if err := iqitScanInto(&scan, d.qp, &res); err != nil {
				return err
			}
			d.activity.BlocksIQIT++
			reconstructBlock(recon, x, y, pred, res)
		}
	}
	d.activity.CodedMBs++
	return nil
}

// predictIntra4Ref is the historical PredictIntra4 body, read through
// the clamping YAt accessor; refDecoder predicts with it.
func predictIntra4Ref(f *Frame, bx, by int, mode IntraMode) (Block4, error) {
	var pred Block4
	hasTop := by > 0
	hasLeft := bx > 0
	switch mode {
	case IntraVertical:
		for c := 0; c < 4; c++ {
			var v uint8 = 128
			if hasTop {
				v = f.YAt(bx+c, by-1)
			}
			for r := 0; r < 4; r++ {
				pred[r*4+c] = int32(v)
			}
		}
	case IntraHorizontal:
		for r := 0; r < 4; r++ {
			var v uint8 = 128
			if hasLeft {
				v = f.YAt(bx-1, by+r)
			}
			for c := 0; c < 4; c++ {
				pred[r*4+c] = int32(v)
			}
		}
	case IntraDC:
		var sum, n int32
		if hasTop {
			for c := 0; c < 4; c++ {
				sum += int32(f.YAt(bx+c, by-1))
			}
			n += 4
		}
		if hasLeft {
			for r := 0; r < 4; r++ {
				sum += int32(f.YAt(bx-1, by+r))
			}
			n += 4
		}
		dc := int32(128)
		if n > 0 {
			dc = (sum + n/2) / n
		}
		for i := range pred {
			pred[i] = dc
		}
	default:
		return pred, fmt.Errorf("h264: unknown intra mode %d", int(mode))
	}
	return pred, nil
}

// decodeResidualScanRef is the residual parser from before the
// run-of-ones and count-leading-zeros fast paths: every block clears its
// scan, trailing-one signs and level prefixes are read one bit at a
// time, and the block's bit count is measured around it.
func decodeResidualScanRef(r *BitReader, scan *[16]int32) (bits, nz int, err error) {
	startBits := r.BitsRead()
	*scan = [16]int32{}
	totalCoeff, trailingOnes, err := readCoeffToken(r)
	if err != nil {
		return 0, 0, err
	}
	if totalCoeff == 0 {
		return r.BitsRead() - startBits, 0, nil
	}
	var levels [16]int32 // reverse scan order
	for i := 0; i < trailingOnes; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, 0, err
		}
		if b == 1 {
			levels[i] = -1
		} else {
			levels[i] = 1
		}
	}
	suffixLength := 0
	if totalCoeff > 10 && trailingOnes < 3 {
		suffixLength = 1
	}
	for i := trailingOnes; i < totalCoeff; i++ {
		code, err := readLevelRef(r, suffixLength)
		if err != nil {
			return 0, 0, err
		}
		level := codeToLevel(code, i == trailingOnes && trailingOnes < 3)
		levels[i] = level
		if suffixLength == 0 {
			suffixLength = 1
		}
		abs := level
		if abs < 0 {
			abs = -abs
		}
		if abs > (3<<(suffixLength-1)) && suffixLength < 6 {
			suffixLength++
		}
	}
	tz, err := r.ReadUE()
	if err != nil {
		return 0, 0, err
	}
	totalZeros := int(tz)
	if totalCoeff+totalZeros > 16 {
		return 0, 0, fmt.Errorf("%w: coeff+zeros %d exceeds block", ErrBitstream, totalCoeff+totalZeros)
	}
	var runs [16]int
	zerosLeft := totalZeros
	for i := 0; i < totalCoeff-1 && zerosLeft > 0; i++ {
		rb, err := r.ReadUE()
		if err != nil {
			return 0, 0, err
		}
		if int(rb) > zerosLeft {
			return 0, 0, fmt.Errorf("%w: run_before %d exceeds zeros left %d", ErrBitstream, rb, zerosLeft)
		}
		runs[i] = int(rb)
		zerosLeft -= int(rb)
	}
	runs[totalCoeff-1] = zerosLeft
	pos := totalCoeff + totalZeros - 1
	for i := 0; i < totalCoeff; i++ {
		if pos < 0 || pos > 15 {
			return 0, 0, fmt.Errorf("%w: scan position %d", ErrBitstream, pos)
		}
		scan[pos] = levels[i]
		pos -= 1 + runs[i]
	}
	return r.BitsRead() - startBits, totalCoeff, nil
}

// readLevelRef is readLevel with its prefix read one bit at a time.
func readLevelRef(r *BitReader, suffixLength int) (int32, error) {
	prefix, err := readLevelPrefixSlow(r)
	if err != nil {
		return 0, err
	}
	if suffixLength == 0 {
		switch {
		case prefix < 14:
			return int32(prefix), nil
		case prefix == 14:
			s, err := r.ReadBits(4)
			if err != nil {
				return 0, err
			}
			return 14 + int32(s), nil
		default:
			s, err := r.ReadBits(12)
			if err != nil {
				return 0, err
			}
			return 30 + int32(s), nil
		}
	}
	if prefix < 15 {
		s, err := r.ReadBits(suffixLength)
		if err != nil {
			return 0, err
		}
		return int32(prefix)<<uint(suffixLength) | int32(s), nil
	}
	s, err := r.ReadBits(12)
	if err != nil {
		return 0, err
	}
	return int32(15)<<uint(suffixLength) + int32(s), nil
}

// predictInter4Ref is the historical PredictInter4 body: every sample
// read through the clamping YAt accessor.
func predictInter4Ref(ref *Frame, bx, by int, mv MV) Block4 {
	var pred Block4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pred[r*4+c] = int32(ref.YAt(bx+c+mv.X, by+r+mv.Y))
		}
	}
	return pred
}
