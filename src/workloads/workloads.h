/**
 * @file
 * Benchmark circuit generators.
 *
 * The paper evaluates on QASMBench circuits (Adder, BV, GHZ, QAOA, QFT,
 * SQRT, RAN/random, SC/supremacy) at 30-299 qubits. The original QASM
 * files are not redistributable here, so each family is regenerated from
 * its construction. What the compiler consumes is the two-qubit
 * interaction structure, which these constructions reproduce exactly:
 *
 *  - Adder: ripple-carry (CDKM) adder; local chains with carry propagation.
 *  - BV: Bernstein-Vazirani; a star of CX into one target qubit.
 *  - GHZ: a CX ladder (linear nearest-neighbour chain).
 *  - QAOA: MaxCut on a random 3-regular graph; bounded-degree, p rounds.
 *  - QFT: quantum Fourier transform; all-to-all controlled rotations.
 *  - SQRT: reversible fixed-point square root via non-restoring iteration
 *    built from adder/subtractor blocks; deep, communication-heavy reuse.
 *  - RAN: uniformly random two-qubit pairs with interleaved 1q gates.
 *  - SC: supremacy-style 2D-grid pattern of staggered two-qubit layers.
 *
 * All generators are deterministic given (n, seed).
 */
#ifndef MUSSTI_WORKLOADS_WORKLOADS_H
#define MUSSTI_WORKLOADS_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace mussti {

/**
 * Ripple-carry adder over two (n-1)/2-bit registers plus carry ancillas,
 * named Adder_n<n> as in QASMBench.
 */
Circuit makeAdder(int num_qubits);

/** Bernstein-Vazirani with a pseudorandom hidden string. */
Circuit makeBv(int num_qubits, std::uint64_t seed = 7);

/** GHZ state preparation: H then a CX chain. */
Circuit makeGhz(int num_qubits);

/**
 * QAOA MaxCut on a random 3-regular graph, `rounds` alternating
 * cost/mixer rounds (paper uses shallow QAOA).
 */
Circuit makeQaoa(int num_qubits, int rounds = 1, std::uint64_t seed = 11);

/** Textbook QFT with full controlled-phase ladder and final swaps. */
Circuit makeQft(int num_qubits);

/**
 * Reversible fixed-point square root (non-restoring digit recurrence),
 * matching QASMBench's sqrt family in size class and reuse pattern.
 */
Circuit makeSqrt(int num_qubits);

/** Uniformly random circuit: `num_gates` 2q pairs + interleaved 1q. */
Circuit makeRandomCircuit(int num_qubits, int num_two_qubit_gates,
                          std::uint64_t seed = 13);

/** Supremacy-style staggered grid circuit of the given depth. */
Circuit makeSupremacy(int num_qubits, int depth = 8,
                      std::uint64_t seed = 17);

/** 1D transverse-field Ising Trotter evolution (even/odd bond layers). */
Circuit makeIsing(int num_qubits, int trotter_steps = 4,
                  std::uint64_t seed = 19);

/** Quantum-volume style square circuit (random pairings per layer). */
Circuit makeQuantumVolume(int num_qubits, int depth = 0,
                          std::uint64_t seed = 23);

/** Linear-depth W-state preparation network. */
Circuit makeWState(int num_qubits);

/**
 * Rotated surface-code syndrome-extraction cycles at the given odd code
 * distance: d^2 data qubits plus d^2-1 ancillas (the paper's outlook
 * names QEC on EML-QCCD as the next step; this workload exercises it).
 */
Circuit makeSurfaceCodeCycle(int distance, int rounds = 1);

/**
 * Named lookup used by benches and examples: family in {adder, bv, ghz,
 * qaoa, qft, sqrt, ran, sc} (case-insensitive); fatal() on unknown names.
 */
Circuit makeBenchmark(const std::string &family, int num_qubits);

/**
 * The circuit a command line names: a `*.qasm` target is read as an
 * OpenQASM file (fatal() if it cannot be opened); anything else is
 * makeBenchmark(target, qubits), where 0 qubits means 32. A negative
 * `qubits` is fatal(). The daemon takes QASM text, never a file name.
 */
Circuit circuitFromTarget(const std::string &target, int qubits);

/** The benchmark families available through makeBenchmark(). */
std::vector<std::string> benchmarkFamilies();

/**
 * The paper's three evaluation suites (section 4): small 30-32q,
 * medium 117-128q, large 256-299q. Returns {family, numQubits} pairs.
 */
struct BenchmarkSpec
{
    std::string family;
    int numQubits;

    /** "Adder_n32"-style label used in the paper's tables. */
    std::string label() const;
};

std::vector<BenchmarkSpec> smallScaleSuite();
std::vector<BenchmarkSpec> mediumScaleSuite();
std::vector<BenchmarkSpec> largeScaleSuite();

} // namespace mussti

#endif // MUSSTI_WORKLOADS_WORKLOADS_H
