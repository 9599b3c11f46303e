#include "mixradix/mr/permutation.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "mixradix/util/expect.hpp"
#include "mixradix/util/strings.hpp"

namespace mr {

Order parse_order(std::string_view text) {
  std::string_view body = util::trim(text);
  if (!body.empty() && body.front() == '[') {
    MR_EXPECT(body.back() == ']', "unbalanced brackets in order '" + std::string(text) + "'");
    body = body.substr(1, body.size() - 2);
  }
  const char sep = body.find('-') != std::string_view::npos ? '-' : ',';
  Order order;
  for (const auto& part : util::split(body, sep)) {
    order.push_back(util::parse_int(part));
  }
  MR_EXPECT(is_permutation_of_iota(order),
            "'" + std::string(text) + "' is not a permutation of 0..n-1");
  return order;
}

std::string order_to_string(const Order& order) {
  return util::join_ints(order, "-");
}

bool is_permutation_of_iota(const Order& order) {
  // Validation sits on the closed-form metric hot path (called once per
  // order of an h! enumeration), so the common n <= 64 case uses a
  // register-wide bitmask instead of a heap-allocated seen-vector.
  if (order.size() <= 64) {
    std::uint64_t seen = 0;
    for (int v : order) {
      if (v < 0 || v >= static_cast<int>(order.size())) return false;
      const std::uint64_t bit = 1ull << static_cast<unsigned>(v);
      if (seen & bit) return false;
      seen |= bit;
    }
    return !order.empty();
  }
  std::vector<bool> seen(order.size(), false);
  for (int v : order) {
    if (v < 0 || v >= static_cast<int>(order.size())) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return !order.empty();
}

Order inverse_order(const Order& order) {
  MR_EXPECT(is_permutation_of_iota(order), "not a permutation");
  Order inverse(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    inverse[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  }
  return inverse;
}

Order compose_orders(const Order& a, const Order& b) {
  MR_EXPECT(a.size() == b.size(), "permutation size mismatch");
  MR_EXPECT(is_permutation_of_iota(a) && is_permutation_of_iota(b), "not permutations");
  Order result(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    result[i] = a[static_cast<std::size_t>(b[i])];
  }
  return result;
}

std::vector<Order> all_orders_lexicographic(int n) {
  MR_EXPECT(n >= 1 && n <= 12, "refusing to materialise more than 12! orders");
  std::vector<Order> out;
  out.reserve(static_cast<std::size_t>(factorial(n)));
  Order order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  do {
    out.push_back(order);
  } while (std::next_permutation(order.begin(), order.end()));
  return out;
}

Order nth_order_lexicographic(int n, long long index) {
  MR_EXPECT(n >= 1 && n <= 20, "n out of range");
  MR_EXPECT(index >= 0 && index < factorial(n),
            "permutation index out of range");
  // Factorial number system: digit i (radix n-i) selects which of the
  // still-unused values comes next.
  std::vector<int> unused(static_cast<std::size_t>(n));
  std::iota(unused.begin(), unused.end(), 0);
  Order order;
  order.reserve(static_cast<std::size_t>(n));
  long long radix_product = factorial(n);
  for (int i = 0; i < n; ++i) {
    radix_product /= n - i;
    const auto pick = static_cast<std::size_t>(index / radix_product);
    index %= radix_product;
    order.push_back(unused[pick]);
    unused.erase(unused.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return order;
}

std::vector<Order> all_orders_heap(int n) {
  MR_EXPECT(n >= 1 && n <= 12, "refusing to materialise more than 12! orders");
  std::vector<Order> out;
  out.reserve(static_cast<std::size_t>(factorial(n)));
  Order a(static_cast<std::size_t>(n));
  std::iota(a.begin(), a.end(), 0);
  // Heap's algorithm, iterative form (Heap 1963): generates each successive
  // permutation from the previous by a single swap.
  std::vector<int> c(static_cast<std::size_t>(n), 0);
  out.push_back(a);
  int i = 0;
  while (i < n) {
    auto& ci = c[static_cast<std::size_t>(i)];
    if (ci < i) {
      if (i % 2 == 0) {
        std::swap(a[0], a[static_cast<std::size_t>(i)]);
      } else {
        std::swap(a[static_cast<std::size_t>(ci)], a[static_cast<std::size_t>(i)]);
      }
      out.push_back(a);
      ++ci;
      i = 0;
    } else {
      ci = 0;
      ++i;
    }
  }
  return out;
}

void for_each_order(int n, const std::function<bool(const Order&)>& visit) {
  MR_EXPECT(n >= 1, "n must be positive");
  Order order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  do {
    if (!visit(order)) return;
  } while (std::next_permutation(order.begin(), order.end()));
}

long long factorial(int n) {
  MR_EXPECT(n >= 0 && n <= 20, "factorial overflows past 20!");
  long long result = 1;
  for (int i = 2; i <= n; ++i) result *= i;
  return result;
}

}  // namespace mr
