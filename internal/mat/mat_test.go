package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAtSet(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("zero value not zero")
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows() != 0 || m.Cols() != 0 {
		t.Fatalf("empty FromRows shape %dx%d", m.Rows(), m.Cols())
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowColCopies(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row did not return a copy")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col did not return a copy")
	}
}

func TestRowViewAliases(t *testing.T) {
	m := New(2, 2)
	m.RowView(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("RowView does not alias")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("Mul = \n%v want \n%v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	id := New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	if !a.Mul(id).Equal(a, 1e-12) {
		t.Fatal("A×I != A")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul shape mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestHStackVStack(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}})
	b := FromRows([][]float64{{3}, {4}})
	v := a.VStack(b)
	if v.Rows() != 4 || v.Cols() != 1 || v.At(2, 0) != 3 {
		t.Fatalf("VStack = \n%v", v)
	}
}

func TestSelectRowsCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := m.SelectRows([]int{2, 0})
	if r.Rows() != 2 || r.At(0, 0) != 7 || r.At(1, 2) != 3 {
		t.Fatalf("SelectRows = \n%v", r)
	}
	c := m.SelectCols([]int{1})
	if c.Cols() != 1 || c.At(2, 0) != 8 {
		t.Fatalf("SelectCols = \n%v", c)
	}
}

func TestColMeans(t *testing.T) {
	m := FromRows([][]float64{{1, 10}, {3, 20}})
	means := m.ColMeans()
	if means[0] != 2 || means[1] != 15 {
		t.Fatalf("ColMeans = %v", means)
	}
}

func TestColMeansEmpty(t *testing.T) {
	means := New(0, 3).ColMeans()
	for _, v := range means {
		if v != 0 {
			t.Fatalf("empty ColMeans = %v", means)
		}
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	m := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov := m.Covariance()
	if math.Abs(cov.At(0, 0)-1) > 1e-12 {
		t.Fatalf("var(col0) = %v, want 1", cov.At(0, 0))
	}
	if math.Abs(cov.At(1, 1)-4) > 1e-12 {
		t.Fatalf("var(col1) = %v, want 4", cov.At(1, 1))
	}
	if math.Abs(cov.At(0, 1)-2) > 1e-12 {
		t.Fatalf("cov(0,1) = %v, want 2", cov.At(0, 1))
	}
	if cov.At(0, 1) != cov.At(1, 0) {
		t.Fatal("covariance not symmetric")
	}
}

func TestCovarianceSingleRow(t *testing.T) {
	cov := FromRows([][]float64{{1, 2, 3}}).Covariance()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if cov.At(i, j) != 0 {
				t.Fatal("single-row covariance should be zero")
			}
		}
	}
}

func TestDistDot(t *testing.T) {
	if d := Dist([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}

func TestDistMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dist length mismatch did not panic")
		}
	}()
	Dist([]float64{1}, []float64{1, 2})
}

func TestCloneIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals [6]float64) bool {
		m := FromRows([][]float64{vals[:3], vals[3:]})
		return m.T().T().Equal(m, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistProperties(t *testing.T) {
	// Symmetry and triangle inequality on random 3-vectors.
	f := func(a, b, c [3]float64) bool {
		ab := Dist(a[:], b[:])
		ba := Dist(b[:], a[:])
		ac := Dist(a[:], c[:])
		cb := Dist(c[:], b[:])
		return ab == ba && ab <= ac+cb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
