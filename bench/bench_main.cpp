// The main() of every maxwe_bench() target, each of which defines
// bench_main() in its place: one error path for all of them. A malformed
// flag, a refused count or a failing run ends in one "error: <what>" line
// on stderr and exit code 1.
#include <exception>
#include <iostream>

int bench_main(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
