#include "linalg/complex_div.hpp"

namespace mcdft::linalg {

[[gnu::noinline, gnu::cold]] Complex DivideOutOfRange(Complex n, Complex d) {
  return n / d;
}

}  // namespace mcdft::linalg
