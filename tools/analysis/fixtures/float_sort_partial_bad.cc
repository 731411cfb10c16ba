#include <algorithm>
#include <vector>
// Positive fixture: partial orderings need the same vetting as full sorts.
void Top(std::vector<double>* xs) {
  std::partial_sort(xs->begin(), xs->begin() + 1, xs->end());
  std::nth_element(xs->begin(), xs->begin() + 1, xs->end());
  std::vector<double> out(1);
  std::partial_sort_copy(xs->begin(), xs->end(), out.begin(), out.end());
}
