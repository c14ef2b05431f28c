package ml

import (
	"math"
	"math/rand"
)

// LSTM is the paper's WikiText-2 language model (§5.1): a word-embedding
// table (the object PIR protects), a single LSTM layer, and a softmax
// output projection, trained with truncated BPTT. A dropped embedding
// lookup feeds a zero vector at that position — the PBR failure mode the
// co-design experiments measure through perplexity.
type LSTM struct {
	// V is the vocabulary; E the embedding width; H the hidden width.
	V, E, H int
	// Emb is the protected word-embedding table.
	Emb *Embedding
	// Wx (4H×E), Wh (4H×H) and B (4H) are the gate parameters, gate order
	// input, forget, cell, output.
	Wx, Wh *Mat
	B      Vec
	// Wo (V×H) and Bo (V) are the output projection.
	Wo *Mat
	Bo Vec
}

// NewLSTM builds an initialized model.
func NewLSTM(v, e, h int, rng *rand.Rand) *LSTM {
	m := &LSTM{
		V: v, E: e, H: h,
		Emb: NewEmbedding(v, e, rng),
		Wx:  NewMat(4*h, e),
		Wh:  NewMat(4*h, h),
		B:   make(Vec, 4*h),
		Wo:  NewMat(v, h),
		Bo:  make(Vec, v),
	}
	m.Wx.InitXavier(rng)
	m.Wh.InitXavier(rng)
	m.Wo.InitXavier(rng)
	// Forget-gate bias at 1 (standard trick for gradient flow).
	for i := h; i < 2*h; i++ {
		m.B[i] = 1
	}
	return m
}

// step caches one timestep's forward state for BPTT.
type step struct {
	x, tgt     int
	e          Vec // input embedding (zero if dropped)
	i, f, g, o Vec
	c, h       Vec
	tanhC      Vec
	probs      Vec
	dropped    bool
}

// forward runs the model over tokens[0..len-2] predicting tokens[1..],
// returning the mean NLL and the per-step caches (nil if caches is false).
func (m *LSTM) forward(tokens []int, dropped map[int]bool, caches bool) (float64, []*step) {
	T := len(tokens) - 1
	if T <= 0 {
		return 0, nil
	}
	h := make(Vec, m.H)
	c := make(Vec, m.H)
	z := make(Vec, 4*m.H)
	zh := make(Vec, 4*m.H)
	var steps []*step
	var nll float64
	for t := 0; t < T; t++ {
		st := &step{x: tokens[t], tgt: tokens[t+1], e: make(Vec, m.E)}
		if dropped == nil || !dropped[tokens[t]] {
			copy(st.e, m.Emb.Row(tokens[t]))
		} else {
			st.dropped = true
		}
		m.Wx.MatVec(z, st.e)
		m.Wh.MatVec(zh, h)
		st.i = make(Vec, m.H)
		st.f = make(Vec, m.H)
		st.g = make(Vec, m.H)
		st.o = make(Vec, m.H)
		st.c = make(Vec, m.H)
		st.h = make(Vec, m.H)
		st.tanhC = make(Vec, m.H)
		for j := 0; j < m.H; j++ {
			st.i[j] = Sigmoid(z[j] + zh[j] + m.B[j])
			st.f[j] = Sigmoid(z[m.H+j] + zh[m.H+j] + m.B[m.H+j])
			st.g[j] = Tanh(z[2*m.H+j] + zh[2*m.H+j] + m.B[2*m.H+j])
			st.o[j] = Sigmoid(z[3*m.H+j] + zh[3*m.H+j] + m.B[3*m.H+j])
			st.c[j] = st.f[j]*c[j] + st.i[j]*st.g[j]
			st.tanhC[j] = Tanh(st.c[j])
			st.h[j] = st.o[j] * st.tanhC[j]
		}
		copy(c, st.c)
		copy(h, st.h)

		logits := make(Vec, m.V)
		m.Wo.MatVec(logits, st.h)
		Axpy(logits, 1, m.Bo)
		st.probs = softmax(logits)
		target := tokens[t+1]
		nll += -math.Log(st.probs[target] + 1e-12)
		if caches {
			steps = append(steps, st)
		}
	}
	return nll / float64(T), steps
}

// NLL returns the mean negative log-likelihood over the token stream, with
// the given vocabulary ids' embeddings dropped (zeroed) at the input.
func (m *LSTM) NLL(tokens []int, dropped map[int]bool) float64 {
	nll, _ := m.forward(tokens, dropped, false)
	return nll
}

// TrainStep runs truncated BPTT over one token window and applies SGD,
// returning the window's mean NLL.
func (m *LSTM) TrainStep(tokens []int, lr float64) float64 {
	loss, steps := m.forward(tokens, nil, true)
	T := len(steps)
	if T == 0 {
		return 0
	}
	scale := 1 / float64(T)

	dWx := NewMat(4*m.H, m.E)
	dWh := NewMat(4*m.H, m.H)
	dB := make(Vec, 4*m.H)
	dWo := NewMat(m.V, m.H)
	dBo := make(Vec, m.V)
	embGrads := map[int]Vec{}

	dhNext := make(Vec, m.H)
	dcNext := make(Vec, m.H)
	dz := make(Vec, 4*m.H)
	for t := T - 1; t >= 0; t-- {
		st := steps[t]
		// Output layer.
		dlogits := make(Vec, m.V)
		copy(dlogits, st.probs)
		dlogits[st.tgt] -= 1
		for j := range dlogits {
			dlogits[j] *= scale
		}
		dWo.AddOuterScaled(1, dlogits, st.h)
		Axpy(dBo, 1, dlogits)
		dh := make(Vec, m.H)
		m.Wo.MatVecT(dh, dlogits)
		Axpy(dh, 1, dhNext)

		dc := make(Vec, m.H)
		copy(dc, dcNext)
		var cPrev Vec
		if t > 0 {
			cPrev = steps[t-1].c
		} else {
			cPrev = make(Vec, m.H)
		}
		for j := 0; j < m.H; j++ {
			do := dh[j] * st.tanhC[j]
			dcj := dc[j] + dh[j]*st.o[j]*(1-st.tanhC[j]*st.tanhC[j])
			di := dcj * st.g[j]
			df := dcj * cPrev[j]
			dg := dcj * st.i[j]
			dcNext[j] = dcj * st.f[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[m.H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*m.H+j] = dg * (1 - st.g[j]*st.g[j])
			dz[3*m.H+j] = do * st.o[j] * (1 - st.o[j])
		}
		var hPrev Vec
		if t > 0 {
			hPrev = steps[t-1].h
		} else {
			hPrev = make(Vec, m.H)
		}
		dWx.AddOuterScaled(1, dz, st.e)
		dWh.AddOuterScaled(1, dz, hPrev)
		Axpy(dB, 1, dz)
		m.Wh.MatVecT(dhNext, dz)
		if !st.dropped {
			de, ok := embGrads[st.x]
			if !ok {
				de = make(Vec, m.E)
				embGrads[st.x] = de
			}
			tmp := make(Vec, m.E)
			m.Wx.MatVecT(tmp, dz)
			Axpy(de, 1, tmp)
		}
	}

	// SGD updates.
	Axpy(m.Wx.W, -lr, dWx.W)
	Axpy(m.Wh.W, -lr, dWh.W)
	Axpy(m.B, -lr, dB)
	Axpy(m.Wo.W, -lr, dWo.W)
	Axpy(m.Bo, -lr, dBo)
	for idx, g := range embGrads {
		Axpy(m.Emb.Row(idx), -lr, g)
	}
	return loss
}

// FLOPs is the multiply-accumulate count of one next-token inference, for
// the client latency model.
func (m *LSTM) FLOPs() float64 {
	return 2 * float64(4*m.H*(m.E+m.H)+m.V*m.H)
}

func softmax(logits Vec) Vec {
	maxv := logits[0]
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	out := make(Vec, len(logits))
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
