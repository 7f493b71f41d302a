package ff

// Montgomery's batch-inversion trick: n field inversions for the price
// of one inversion and 3(n−1) multiplications. Used by the fast-path
// group arithmetic to normalize Jacobian points and to share the
// Miller-loop line-denominator inversions across a multi-pairing.
//
// Every current caller inverts public curve data (Jacobian Z
// coordinates of public points, line denominators of public pairing
// inputs), so the single interior inversion takes the variable-time
// Kaliski path. A future caller holding secret-derived elements must
// not use these helpers — inverting via the fixed-schedule Fp.Inverse
// directly instead.

// BatchInverseFp sets out[i] = xs[i]⁻¹ for every i, mapping zeros to
// zeros (matching Fp.Inverse). A single field inversion is performed
// regardless of len(xs).
func BatchInverseFp(xs []Fp) []Fp {
	out := make([]Fp, len(xs))
	if len(xs) == 0 {
		return out
	}
	BatchInverseFpInto(out, xs, make([]Fp, len(xs)))
	return out
}

// BatchInverseFpInto is the scratch-reusing form of BatchInverseFp: it
// writes xs[i]⁻¹ into out[i] using prefix as workspace, allocating
// nothing. out and prefix must each have len(xs); out may alias xs
// (in-place inversion), prefix may not alias either. The loops that
// call this once per Miller-loop step or bucket round keep one out and
// one prefix slice alive across the whole run.
//
//dlr:noalloc
func BatchInverseFpInto(out, xs, prefix []Fp) {
	if len(xs) == 0 {
		return
	}
	// prefix[i] = product of all nonzero xs[j], j < i.
	var acc Fp
	acc.SetOne()
	for i := range xs {
		prefix[i].Set(&acc)
		if !xs[i].IsZero() {
			acc.Mul(&acc, &xs[i])
		}
	}
	var inv Fp
	inv.InverseVartime(&acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			out[i].SetZero()
			continue
		}
		x := xs[i] // value copy so out may alias xs
		out[i].Mul(&inv, &prefix[i])
		inv.Mul(&inv, &x)
	}
}

// BatchInverseFp2 is BatchInverseFp for Fp2 elements.
func BatchInverseFp2(xs []Fp2) []Fp2 {
	out := make([]Fp2, len(xs))
	if len(xs) == 0 {
		return out
	}
	BatchInverseFp2Into(out, xs, make([]Fp2, len(xs)))
	return out
}

// BatchInverseFp2Into is the scratch-reusing form of BatchInverseFp2,
// with the same contract as BatchInverseFpInto.
//
//dlr:noalloc
func BatchInverseFp2Into(out, xs, prefix []Fp2) {
	switch len(xs) {
	case 0:
		return
	case 1:
		// The Miller engine's single-pair step: with one element the
		// trick below would only add three multiplications by one.
		out[0].InverseVartime(&xs[0]) // zero maps to zero
		return
	}
	var acc Fp2
	acc.SetOne()
	for i := range xs {
		prefix[i].Set(&acc)
		if !xs[i].IsZero() {
			acc.Mul(&acc, &xs[i])
		}
	}
	var inv Fp2
	inv.InverseVartime(&acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i].IsZero() {
			out[i].SetZero()
			continue
		}
		x := xs[i]
		out[i].Mul(&inv, &prefix[i])
		inv.Mul(&inv, &x)
	}
}
