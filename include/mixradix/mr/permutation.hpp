// Generation and manipulation of level permutations ("orders").
//
// The paper enumerates all h! orders of a depth-h hierarchy with Heap's
// algorithm [Heap 1963] and Python's itertools.permutations(); we provide
// both (Heap's order and lexicographic order) plus parsing/printing of the
// paper's "1-3-2-0" notation.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace mr {

using Order = std::vector<int>;

/// Parse "1-3-2-0", "1,3,2,0" or "[1, 3, 2, 0]" into an order; validates
/// that it is a permutation of [0, n).
Order parse_order(std::string_view text);

/// The paper's rendering: "1-3-2-0".
std::string order_to_string(const Order& order);

/// True iff `order` is a permutation of [0, n).
bool is_permutation_of_iota(const Order& order);

/// Inverse permutation: inverse[order[i]] = i.
Order inverse_order(const Order& order);

/// Compose permutations: result[i] = a[b[i]] (apply b, then a).
Order compose_orders(const Order& a, const Order& b);

/// All n! permutations of [0, n) in lexicographic order (the
/// itertools.permutations() order used by the paper's companion scripts).
std::vector<Order> all_orders_lexicographic(int n);

/// The `index`-th permutation of [0, n) in lexicographic order (the
/// factorial number system unranking), without materialising the other
/// n! - 1: all_orders_lexicographic(n)[index] == nth_order_lexicographic(n,
/// index). Lets shards of the order space be enumerated independently
/// (e.g. chunked benches or distributed classification). `index` must lie
/// in [0, n!).
Order nth_order_lexicographic(int n, long long index);

/// All n! permutations in the order produced by Heap's algorithm [8].
std::vector<Order> all_orders_heap(int n);

/// Visit each permutation without materialising the full list; stops early
/// if the visitor returns false. Lexicographic order.
void for_each_order(int n, const std::function<bool(const Order&)>& visit);

/// n! as a 64-bit value; throws for n > 20.
long long factorial(int n);

}  // namespace mr
