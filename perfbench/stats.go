package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the Harrell–Davis estimate of the q-quantile (0 ≤ q ≤ 1)
// of xs; 0 for an empty sample. xs is not modified. The estimate weighs
// every order statistic by a Beta((n+1)q, (n+1)(1−q)) distribution instead
// of interpolating between the two nearest, which makes it much less
// sensitive to which samples a run happened to draw: a tail percentile over
// a hundred latencies, or a median over five operations, then repeats from
// run to run far better.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if q <= 0 || n == 1 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i, x := range s {
		cur := betaInc(float64(i+1)/float64(n), a, b)
		est += (cur - prev) * x
		prev = cur
	}
	return est
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// betaInc returns the regularized incomplete beta function I_x(a, b) for
// a, b > 0, by its continued fraction (Numerical Recipes, 3rd ed., §6.4).
func betaInc(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of betaInc by the modified Lentz
// method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 100000; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((a - 1 + m2) * (a + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + m2) * (a + 1 + m2))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
