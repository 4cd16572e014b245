// hemp_analyzer fixture: one injected violation per determinism source
// class — libc rand/time, <random> engines, wall clocks, and unordered
// containers (locals and members) — plus namespace-scope variables of a
// nondeterministic type.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

namespace fixture {

int noisy() { return std::rand(); }

long stamp() { return time(nullptr); }

long long wall_nanos() {
  return std::chrono::system_clock::now().time_since_epoch().count();
}

unsigned unseeded() {
  std::mt19937 gen;
  return static_cast<unsigned>(gen());
}

unsigned entropy() {
  std::random_device rd;
  return rd();
}

struct Cache {
  std::unordered_map<int, double> items;
};

std::unordered_map<int, int> g_cache;
static std::mt19937 g_gen;

int cached(int key) { return g_cache[key] + static_cast<int>(g_gen()); }

int lookup_count(int key) {
  std::unordered_map<int, int> counts;
  counts[key] += 1;
  return counts[key];
}

}  // namespace fixture
