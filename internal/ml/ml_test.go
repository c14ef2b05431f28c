package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatOps(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.W, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 0, -1}
	dst := make(Vec, 2)
	m.MatVec(dst, x)
	if dst[0] != -2 || dst[1] != -2 {
		t.Errorf("MatVec = %v, want [-2 -2]", dst)
	}
	y := Vec{1, 2}
	dt := make(Vec, 3)
	m.MatVecT(dt, y)
	if dt[0] != 9 || dt[1] != 12 || dt[2] != 15 {
		t.Errorf("MatVecT = %v, want [9 12 15]", dt)
	}
	m2 := NewMat(2, 3)
	m2.AddOuterScaled(2, y, x)
	if m2.W[0] != 2 || m2.W[2] != -2 || m2.W[3] != 4 {
		t.Errorf("AddOuterScaled = %v", m2.W)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := Sigmoid(1000); s != 1 {
		t.Errorf("Sigmoid(1000) = %g", s)
	}
	if s := Sigmoid(-1000); s != 0 {
		t.Errorf("Sigmoid(-1000) = %g", s)
	}
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %g", s)
	}
}

// TestMLPGradientCheck compares TrainStep's input gradient against central
// finite differences.
func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(6, 5, rng)
	x := make(Vec, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	label := 1.0

	lossAt := func(xx Vec) float64 {
		p, _ := m.Forward(xx)
		return -(label * math.Log(p+1e-12))
	}
	// lr=0 keeps parameters fixed so dx corresponds to the same weights.
	_, dx := m.TrainStep(x, label, 0)
	const eps = 1e-6
	for i := range x {
		xp := make(Vec, len(x))
		copy(xp, x)
		xp[i] += eps
		xm := make(Vec, len(x))
		copy(xm, x)
		xm[i] -= eps
		num := (lossAt(xp) - lossAt(xm)) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-5*(1+math.Abs(num)) {
			t.Errorf("dx[%d]: analytic %g vs numeric %g", i, dx[i], num)
		}
	}
}

// TestMLPLearnsSeparableTask: AUC should exceed 0.95 on a linearly
// separable problem after a few epochs.
func TestMLPLearnsSeparableTask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(4, 8, rng)
	sample := func() (Vec, float64) {
		x := make(Vec, 4)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		label := 0.0
		if x[0]+x[1]-x[2] > 0 {
			label = 1
		}
		return x, label
	}
	for it := 0; it < 4000; it++ {
		x, y := sample()
		m.TrainStep(x, y, 0.05)
	}
	var scores, labels []float64
	for i := 0; i < 500; i++ {
		x, y := sample()
		scores = append(scores, m.Predict(x))
		labels = append(labels, y)
	}
	if auc := AUC(scores, labels); auc < 0.95 {
		t.Errorf("AUC = %g, want > 0.95", auc)
	}
}

func TestEmbeddingBag(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEmbedding(10, 4, rng)
	dst := make(Vec, 4)
	e.Bag(dst, []uint64{2, 5}, nil)
	for j := 0; j < 4; j++ {
		want := (e.Row(2)[j] + e.Row(5)[j]) / 2
		if math.Abs(dst[j]-want) > 1e-12 {
			t.Errorf("bag lane %d: %g want %g", j, dst[j], want)
		}
	}
	// Drops remove contributions.
	e.Bag(dst, []uint64{2, 5}, map[uint64]bool{5: true})
	for j := 0; j < 4; j++ {
		if dst[j] != e.Row(2)[j] {
			t.Errorf("dropped bag lane %d: %g want %g", j, dst[j], e.Row(2)[j])
		}
	}
	// All dropped → zero vector.
	e.Bag(dst, []uint64{2}, map[uint64]bool{2: true})
	for j := range dst {
		if dst[j] != 0 {
			t.Error("fully dropped bag should be zero")
		}
	}
}

// TestBagFromMatchesBag: pooling PIR-fetched float32 rows agrees with
// direct pooling up to float32 quantization.
func TestBagFromMatchesBag(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEmbedding(20, 8, rng)
	exported := e.Export()
	idx := []uint64{1, 7, 13}
	fetched := map[uint64][]float32{}
	for _, i := range idx {
		fetched[i] = exported[i]
	}
	a := make(Vec, 8)
	b := make(Vec, 8)
	e.Bag(a, idx, nil)
	BagFrom(b, fetched, idx)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-6 {
			t.Errorf("lane %d: direct %g vs fetched %g", j, a[j], b[j])
		}
	}
	// A missing row behaves like a drop.
	delete(fetched, 7)
	BagFrom(b, fetched, idx)
	e.Bag(a, idx, map[uint64]bool{7: true})
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-6 {
			t.Errorf("drop lane %d: %g vs %g", j, a[j], b[j])
		}
	}
}

// cloneLSTM deep-copies a model for finite-difference checks.
func cloneLSTM(m *LSTM) *LSTM {
	cp := *m
	cp.Emb = &Embedding{V: m.Emb.V, Dim: m.Emb.Dim, W: cloneMat(m.Emb.W)}
	cp.Wx = cloneMat(m.Wx)
	cp.Wh = cloneMat(m.Wh)
	cp.Wo = cloneMat(m.Wo)
	cp.B = append(Vec{}, m.B...)
	cp.Bo = append(Vec{}, m.Bo...)
	return &cp
}

func cloneMat(m *Mat) *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.W, m.W)
	return c
}

// TestLSTMGradientCheck verifies BPTT against finite differences on
// representative parameters (gate weight, recurrent weight, output weight,
// bias, embedding).
func TestLSTMGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewLSTM(7, 3, 4, rng)
	tokens := []int{1, 4, 2, 6, 0, 3, 5, 1, 2}

	// With lr=1, weight delta = -gradient.
	applied := cloneLSTM(m)
	applied.TrainStep(tokens, 1)

	check := func(name string, w, updated Vec, flat int) {
		grad := w[flat] - updated[flat]
		const eps = 1e-5
		orig := w[flat]
		w[flat] = orig + eps
		lp := m.NLL(tokens, nil)
		w[flat] = orig - eps
		lm := m.NLL(tokens, nil)
		w[flat] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad) > 1e-4*(1+math.Abs(num)) {
			t.Errorf("%s[%d]: analytic %g vs numeric %g", name, flat, grad, num)
		}
	}
	check("Wx", m.Wx.W, applied.Wx.W, 2)
	check("Wx", m.Wx.W, applied.Wx.W, 17)
	check("Wh", m.Wh.W, applied.Wh.W, 5)
	check("Wo", m.Wo.W, applied.Wo.W, 9)
	check("B", m.B, applied.B, 1)
	check("Bo", m.Bo, applied.Bo, 3)
	check("Emb", m.Emb.W.W, applied.Emb.W.W, 4*3+1) // row 4, lane 1 (token 4 appears)
}

// TestLSTMLearnsStructure: on a deterministic cyclic sequence, training
// should drive perplexity far below the uniform baseline (= vocab size).
func TestLSTMLearnsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const v = 8
	m := NewLSTM(v, 6, 12, rng)
	var stream []int
	for i := 0; i < 400; i++ {
		stream = append(stream, i%v)
	}
	before := PerplexityFromNLL(m.NLL(stream, nil))
	for epoch := 0; epoch < 30; epoch++ {
		for off := 0; off+16 < len(stream); off += 15 {
			m.TrainStep(stream[off:off+16], 0.1)
		}
	}
	after := PerplexityFromNLL(m.NLL(stream, nil))
	if after > before/2 || after > 2.0 {
		t.Errorf("perplexity %g -> %g; cyclic sequence should be nearly deterministic", before, after)
	}
}

// TestLSTMDropHurtsPerplexity: zeroing frequent words' embeddings must not
// improve perplexity and should visibly hurt it on a trained model.
func TestLSTMDropHurtsPerplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const v = 8
	m := NewLSTM(v, 6, 12, rng)
	var stream []int
	for i := 0; i < 300; i++ {
		stream = append(stream, i%v)
	}
	for epoch := 0; epoch < 20; epoch++ {
		for off := 0; off+16 < len(stream); off += 15 {
			m.TrainStep(stream[off:off+16], 0.1)
		}
	}
	clean := PerplexityFromNLL(m.NLL(stream, nil))
	degraded := PerplexityFromNLL(m.NLL(stream, map[int]bool{0: true, 1: true, 2: true, 3: true}))
	if degraded <= clean {
		t.Errorf("dropping half the vocab should hurt: clean %g, degraded %g", clean, degraded)
	}
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	if a := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []float64{1, 1, 0, 0}); a != 1 {
		t.Errorf("perfect AUC = %g", a)
	}
	// Inverted.
	if a := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []float64{1, 1, 0, 0}); a != 0 {
		t.Errorf("inverted AUC = %g", a)
	}
	// All tied scores → 0.5.
	if a := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []float64{1, 0, 1, 0}); a != 0.5 {
		t.Errorf("tied AUC = %g", a)
	}
	// Degenerate labels → 0.5.
	if a := AUC([]float64{0.3, 0.7}, []float64{1, 1}); a != 0.5 {
		t.Errorf("single-class AUC = %g", a)
	}
	if a := AUC(nil, nil); a != 0.5 {
		t.Errorf("empty AUC = %g", a)
	}
	// Random scores ≈ 0.5.
	rng := rand.New(rand.NewSource(8))
	var s, l []float64
	for i := 0; i < 5000; i++ {
		s = append(s, rng.Float64())
		l = append(l, float64(rng.Intn(2)))
	}
	if a := AUC(s, l); a < 0.47 || a > 0.53 {
		t.Errorf("random AUC = %g, want ≈0.5", a)
	}
}

func TestFLOPsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if (NewMLP(10, 20, rng)).FLOPs() <= 0 {
		t.Error("MLP FLOPs must be positive")
	}
	if (NewLSTM(50, 8, 16, rng)).FLOPs() <= 0 {
		t.Error("LSTM FLOPs must be positive")
	}
}
