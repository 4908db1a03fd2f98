#include "circuit/io.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "circuit/builders.h"

namespace pfact::circuit {
namespace {

TEST(CircuitIo, ParsesSimpleFile) {
  auto p = parse_circuit_text(
      "# xor-ish\n"
      "inputs 2\n"
      "nand 0 1\n"
      "nand 0 2\n"
      "nand 1 2\n"
      "nand 3 4\n"
      "assign 1 0\n");
  EXPECT_EQ(p.circuit.num_inputs(), 2u);
  EXPECT_EQ(p.circuit.num_gates(), 4u);
  ASSERT_TRUE(p.inputs.has_value());
  EXPECT_TRUE((*p.inputs)[0]);
  EXPECT_FALSE((*p.inputs)[1]);
  // This is XOR: 1 ^ 0 = 1.
  EXPECT_TRUE(p.circuit.evaluate(*p.inputs));
}

TEST(CircuitIo, RoundTripsBuilders) {
  for (const Circuit& c :
       {xor_circuit(), majority3_circuit(), adder_carry_circuit(2)}) {
    std::vector<bool> in(c.num_inputs(), true);
    std::string text = circuit_to_text(c, &in);
    auto p = parse_circuit_text(text);
    EXPECT_EQ(p.circuit.num_gates(), c.num_gates());
    ASSERT_TRUE(p.inputs.has_value());
    for (unsigned m = 0; m < (1u << c.num_inputs()); ++m) {
      std::vector<bool> bits(c.num_inputs());
      for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (m >> i) & 1;
      EXPECT_EQ(p.circuit.evaluate(bits), c.evaluate(bits)) << m;
    }
  }
}

TEST(CircuitIo, CommentsAndBlankLines) {
  auto p = parse_circuit_text(
      "\n# leading comment\n\ninputs 1\n\nnand 0 0 # not\n");
  EXPECT_EQ(p.circuit.num_gates(), 1u);
  EXPECT_FALSE(p.inputs.has_value());
}

TEST(CircuitIo, Errors) {
  EXPECT_THROW(parse_circuit_text(""), std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("nand 0 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 5\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 1\nassign 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 1\nassign 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nfrob 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 1 9\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\ninputs 2\nnand 0 1\n"),
               std::invalid_argument);
}

TEST(CircuitIo, ErrorMessagesCarryLineNumbers) {
  try {
    parse_circuit_text("inputs 2\nnand 0 7\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(CircuitIo, AcceptsCrlfLineEndings) {
  // Files written on Windows carry \r\n; getline leaves the \r attached to
  // the last token of every line, which used to break keyword matching and
  // numeric extraction.
  auto p = parse_circuit_text(
      "inputs 2\r\n"
      "nand 0 1\r\n"
      "nand 2 2\r\n"
      "assign 1 0\r\n");
  EXPECT_EQ(p.circuit.num_inputs(), 2u);
  EXPECT_EQ(p.circuit.num_gates(), 2u);
  ASSERT_TRUE(p.inputs.has_value());
  EXPECT_TRUE((*p.inputs)[0]);
  EXPECT_FALSE((*p.inputs)[1]);
  // Mixed endings and a comment ending in \r parse identically.
  auto q = parse_circuit_text("inputs 2\r\nnand 0 1  # note\r\nnand 2 2\n");
  EXPECT_EQ(q.circuit.num_gates(), 2u);
}

TEST(CircuitIo, EmptyFileErrorNamesARealLine) {
  // An empty file never increments the line counter; the message used to
  // say "line 0", which names no line a user can look at.
  for (const std::string& text :
       {std::string(""), std::string("\n\n# c\n")}) {
    try {
      parse_circuit_text(text);
      FAIL() << "expected throw";
    } catch (const std::invalid_argument& e) {
      std::string what = e.what();
      EXPECT_EQ(what.find("line 0"), std::string::npos) << what;
      EXPECT_NE(what.find("line "), std::string::npos) << what;
    }
  }
}

TEST(CircuitIo, DuplicateAssignIsRejected) {
  EXPECT_THROW(
      parse_circuit_text("inputs 2\nnand 0 1\nassign 1 0\nassign 0 1\n"),
      std::invalid_argument);
}

TEST(CircuitIo, TrailingGarbageAfterAssignIsRejected) {
  // A failed extraction at end-of-line used to leave the stream failed, so
  // the trailing-token check never fired and the junk was silently eaten.
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 1\nassign 1 0 junk\n"),
               std::invalid_argument);
}

TEST(CircuitIo, AdversarialInputsAreRejectedNotCrashing) {
  // Indices far beyond any node that could exist.
  EXPECT_THROW(
      parse_circuit_text("inputs 2\nnand 0 999999999999999999\n"),
      std::invalid_argument);
  // 21-digit index overflows size_t extraction -> failed read, not UB.
  EXPECT_THROW(
      parse_circuit_text("inputs 2\nnand 0 123456789012345678901\n"),
      std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 123456789012345678901\nnand 0 1\n"),
               std::invalid_argument);
  // Negative and non-numeric operands.
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand -1 0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand zero 1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_circuit_text("inputs 2\nnand 0 1\nassign 1 -1\n"),
               std::invalid_argument);
}

TEST(CircuitIo, FuzzRoundTripRandomCircuits) {
  // Fixed-seed fuzz: serialize a random circuit (with a random assignment),
  // reparse, and demand the reparsed instance is semantically identical.
  std::mt19937_64 rng(0xC1DC1D5EEDULL);
  for (int round = 0; round < 40; ++round) {
    const std::size_t num_inputs = 1 + rng() % 6;
    const std::size_t num_gates = 1 + rng() % 24;
    Circuit c = random_circuit(num_inputs, num_gates, rng());
    std::vector<bool> in(num_inputs);
    for (std::size_t i = 0; i < num_inputs; ++i) in[i] = rng() & 1;

    std::string text = circuit_to_text(c, &in);
    ParsedInstance p = parse_circuit_text(text);

    ASSERT_EQ(p.circuit.num_inputs(), c.num_inputs()) << text;
    ASSERT_EQ(p.circuit.num_gates(), c.num_gates()) << text;
    ASSERT_TRUE(p.inputs.has_value());
    ASSERT_EQ(*p.inputs, in);
    for (std::size_t g = 0; g < c.num_gates(); ++g) {
      EXPECT_EQ(p.circuit.gate(g).in0, c.gate(g).in0);
      EXPECT_EQ(p.circuit.gate(g).in1, c.gate(g).in1);
    }
    // Semantic agreement on a handful of random assignments too.
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<bool> bits(num_inputs);
      for (std::size_t i = 0; i < num_inputs; ++i) bits[i] = rng() & 1;
      EXPECT_EQ(p.circuit.evaluate(bits), c.evaluate(bits)) << text;
    }
    // And a second serialize -> parse loop is a fixed point.
    EXPECT_EQ(circuit_to_text(p.circuit, &*p.inputs), text);
  }
}

}  // namespace
}  // namespace pfact::circuit
