#include "workloads/workloads.h"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "circuit/qasm.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace mussti {

std::string
BenchmarkSpec::label() const
{
    std::string fam = family;
    if (!fam.empty())
        fam[0] = static_cast<char>(std::toupper(
            static_cast<unsigned char>(fam[0])));
    if (toLower(family) == "bv" || toLower(family) == "ghz" ||
        toLower(family) == "qft" || toLower(family) == "qaoa" ||
        toLower(family) == "sqrt" || toLower(family) == "ran" ||
        toLower(family) == "sc") {
        fam = toLower(family);
        std::transform(fam.begin(), fam.end(), fam.begin(), ::toupper);
    }
    return fam + "_n" + std::to_string(numQubits);
}

Circuit
makeBenchmark(const std::string &family, int num_qubits)
{
    const std::string fam = toLower(family);
    if (fam == "adder")
        return makeAdder(num_qubits);
    if (fam == "bv")
        return makeBv(num_qubits);
    if (fam == "ghz")
        return makeGhz(num_qubits);
    if (fam == "qaoa")
        return makeQaoa(num_qubits);
    if (fam == "qft")
        return makeQft(num_qubits);
    if (fam == "sqrt")
        return makeSqrt(num_qubits);
    if (fam == "ran" || fam == "random")
        return makeRandomCircuit(num_qubits, num_qubits * 6);
    if (fam == "sc" || fam == "supremacy")
        return makeSupremacy(num_qubits);
    if (fam == "ising")
        return makeIsing(num_qubits);
    if (fam == "qv")
        return makeQuantumVolume(num_qubits);
    if (fam == "wstate")
        return makeWState(num_qubits);
    fatal("unknown benchmark family: " + family);
}

Circuit
circuitFromTarget(const std::string &target, int qubits)
{
    if (qubits < 0)
        fatal("qubit count " + std::to_string(qubits) + " is negative");
    if (!target.ends_with(".qasm"))
        return makeBenchmark(target, qubits > 0 ? qubits : 32);
    std::ifstream in(target);
    if (!in)
        fatal("cannot open " + target);
    return fromQasmStream(in, target);
}

std::vector<std::string>
benchmarkFamilies()
{
    return {"adder", "bv", "ghz", "qaoa", "qft", "sqrt", "ran", "sc",
            "ising", "qv", "wstate"};
}

std::vector<BenchmarkSpec>
smallScaleSuite()
{
    return {
        {"adder", 32}, {"bv", 32}, {"ghz", 32},
        {"qaoa", 32}, {"qft", 32}, {"sqrt", 30},
    };
}

std::vector<BenchmarkSpec>
mediumScaleSuite()
{
    return {
        {"adder", 128}, {"bv", 128}, {"qaoa", 128},
        {"ghz", 128}, {"sqrt", 117},
    };
}

std::vector<BenchmarkSpec>
largeScaleSuite()
{
    return {
        {"adder", 256}, {"bv", 256}, {"qaoa", 256}, {"ghz", 256},
        {"ran", 256}, {"sc", 274}, {"sqrt", 299},
    };
}

} // namespace mussti
