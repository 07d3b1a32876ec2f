#include "aig/aig_io.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"

namespace emorphic {
namespace {

TEST(AigIo, EquationRoundTrip) {
  Rng rng(21);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(6, 4, 50, rng);
    std::string text = write_equations(aig);
    Aig back = read_equations(text);
    EXPECT_EQ(back.num_pis(), aig.num_pis());
    EXPECT_EQ(back.num_pos(), aig.num_pos());
    EXPECT_TRUE(testing::functionally_equal(aig, back));
  }
}

TEST(AigIo, EquationParserOperators) {
  const std::string text =
      "INORDER = a b c;\n"
      "OUTORDER = f g h;\n"
      "f = a & b | !c;\n"
      "g = (a | b) & (a ^ c);\n"
      "h = 1 & a | 0;\n";
  Aig aig = read_equations(text);
  EXPECT_EQ(aig.num_pis(), 3u);
  EXPECT_EQ(aig.num_pos(), 3u);
  Tt a = tt_var(0, 3), b = tt_var(1, 3), c = tt_var(2, 3);
  EXPECT_EQ(exhaustive_tt(aig, 0), ((a & b) | (~c & tt_mask(3))) & tt_mask(3));
  EXPECT_EQ(exhaustive_tt(aig, 1), ((a | b) & (a ^ c)) & tt_mask(3));
  EXPECT_EQ(exhaustive_tt(aig, 2), a);
}

TEST(AigIo, EquationParserComments) {
  const std::string text =
      "# a comment\nINORDER = x;\nOUTORDER = y;\n# more\ny = !x;\n";
  Aig aig = read_equations(text);
  EXPECT_EQ(exhaustive_tt(aig, 0), tt_not(tt_var(0, 1), 1));
}

TEST(AigIo, EquationErrors) {
  EXPECT_THROW(read_equations("INORDER = a;\nOUTORDER = f;\nf = b;\n"),
               std::runtime_error);  // undefined signal
  EXPECT_THROW(read_equations("INORDER = a;\nOUTORDER = f;\n"),
               std::runtime_error);  // undefined output
  EXPECT_THROW(read_equations("INORDER = a\n"), std::runtime_error);
}

TEST(AigIo, AigerRoundTrip) {
  Rng rng(23);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(5, 3, 40, rng);
    std::string text = write_aiger(aig);
    Aig back = read_aiger(text);
    EXPECT_EQ(back.num_pis(), aig.num_pis());
    EXPECT_EQ(back.num_pos(), aig.num_pos());
    EXPECT_TRUE(testing::functionally_equal(aig, back));
  }
}

TEST(AigIo, AigerRoundTripKeepsSignalNames) {
  Aig aig = testing::named_full_adder("alice_");
  Aig back = read_aiger(write_aiger(aig));
  ASSERT_EQ(back.num_pis(), 3u);
  ASSERT_EQ(back.num_pos(), 2u);
  EXPECT_EQ(back.pi_name(0), "alice_a");
  EXPECT_EQ(back.pi_name(1), "alice_b");
  EXPECT_EQ(back.pi_name(2), "alice_cin");
  EXPECT_EQ(back.po_name(0), "alice_sum");
  EXPECT_EQ(back.po_name(1), "alice_out");
  EXPECT_TRUE(testing::functionally_equal(aig, back));
}

TEST(AigIo, AigerSymbolTableIsOptionalPerSignal) {
  // Unnamed signals keep the default names; the comment section is ignored.
  Aig aig = read_aiger(
      "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni1 enable\nc\ni0 not a symbol\n");
  EXPECT_EQ(aig.pi_name(0), "pi0");
  EXPECT_EQ(aig.pi_name(1), "enable");
  EXPECT_EQ(aig.po_name(0), "po0");
  EXPECT_EQ(exhaustive_tt(aig, 0), tt_var(0, 2) & tt_var(1, 2));
}

TEST(AigIo, AigerRejectsMalformedSymbolTable) {
  const std::string body = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
  EXPECT_THROW(read_aiger(body + "x0 name\n"), std::runtime_error);
  EXPECT_THROW(read_aiger(body + "i2 name\n"), std::runtime_error);
  EXPECT_THROW(read_aiger(body + "o1 name\n"), std::runtime_error);
  EXPECT_THROW(read_aiger(body + "i0\n"), std::runtime_error);
}

TEST(AigIo, AigerHeaderValidation) {
  EXPECT_THROW(read_aiger("aig 1 1 0 0 0\n"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 2 1 1 0 0\n2\n"), std::runtime_error);  // latch
}

// --- server-hardening negative suite ----------------------------------------
// The synthesis daemon feeds client-supplied text straight into read_aiger;
// every malformed shape below must throw std::runtime_error (never assert,
// never read out of bounds, never allocate off attacker-declared counts).

TEST(AigIo, AigerRejectsTruncatedHeader) {
  EXPECT_THROW(read_aiger(""), std::runtime_error);
  EXPECT_THROW(read_aiger("aag"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0 1"), std::runtime_error);
}

TEST(AigIo, AigerRejectsNonNumericTokens) {
  EXPECT_THROW(read_aiger("aag x 2 0 1 1\n"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\nfoo\n4\n6\n6 2 4\n"),
               std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 two 4\n"),
               std::runtime_error);
}

TEST(AigIo, AigerRejectsOutOfRangeLiterals) {
  // PI literal 99 exceeds 2m+1 = 7.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n99\n4\n6\n6 2 4\n"),
               std::runtime_error);
  // AND output literal out of range.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n88 2 4\n"),
               std::runtime_error);
  // PO literal out of range.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n99\n6 2 4\n"),
               std::runtime_error);
}

TEST(AigIo, AigerRejectsOversizedDeclaredCounts) {
  // Counts that could never fit in the input must be rejected before any
  // allocation is sized from them.
  EXPECT_THROW(read_aiger("aag 4000000000 4000000000 0 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(read_aiger("aag 4000000000 1 0 4000000000 0\n2\n"),
               std::runtime_error);
  EXPECT_THROW(read_aiger("aag 18446744073709551615 1 0 1 0\n2\n2\n"),
               std::runtime_error);
  // Header arithmetic: i + a may not exceed m.
  EXPECT_THROW(read_aiger("aag 2 2 0 0 2\n2\n4\n"), std::runtime_error);
}

TEST(AigIo, AigerRejectsMalformedDefinitions) {
  // Odd (complemented) PI literal.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n3\n4\n6\n6 2 4\n"),
               std::runtime_error);
  // Constant literal declared as PI.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n0\n4\n6\n6 2 4\n"),
               std::runtime_error);
  // Duplicate definition (PI literal repeated).
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n2\n6\n6 2 4\n"),
               std::runtime_error);
  // AND redefines a PI literal.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n2 2 4\n"),
               std::runtime_error);
  // Odd AND output literal.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n"),
               std::runtime_error);
}

TEST(AigIo, AigerRejectsUseBeforeDefinition) {
  // The AND at literal 6 references literal 8, defined only later — the
  // reader requires topological order (matching write_aiger's output).
  EXPECT_THROW(
      read_aiger("aag 4 1 0 1 3\n2\n6\n6 8 2\n8 2 2\n4 2 2\n"),
      std::runtime_error);
  // PO references a never-defined literal inside range.
  EXPECT_THROW(read_aiger("aag 3 2 0 1 0\n2\n4\n6\n"), std::runtime_error);
}

TEST(AigIo, AigerRejectsTruncatedSections) {
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n"), std::runtime_error);
  EXPECT_THROW(read_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2\n"),
               std::runtime_error);
}

TEST(AigIo, AigerAcceptsMinimalValidCircuit) {
  // The happy path of the shapes above: 2 PIs, one AND, one PO.
  Aig aig = read_aiger("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n");
  EXPECT_EQ(aig.num_pis(), 2u);
  EXPECT_EQ(aig.num_pos(), 1u);
  EXPECT_EQ(aig.num_ands(), 1u);
  EXPECT_EQ(exhaustive_tt(aig, 0), tt_var(0, 2) & tt_var(1, 2));
}

TEST(AigIo, AigerConstantOutputs) {
  Aig aig;
  aig.add_pi();
  aig.add_po(kLitTrue, "t");
  aig.add_po(kLitFalse, "f");
  Aig back = read_aiger(write_aiger(aig));
  EXPECT_EQ(back.po(0), kLitTrue);
  EXPECT_EQ(back.po(1), kLitFalse);
}

TEST(AigIo, EquationConstantOutputs) {
  Aig aig;
  aig.add_pi("a");
  aig.add_po(kLitTrue, "t");
  Aig back = read_equations(write_equations(aig));
  EXPECT_EQ(back.po(0), kLitTrue);
}

// --- binary AIGER ("aig") ----------------------------------------------------

TEST(AigIoBinary, RoundTripPreservesFunctionAndNames) {
  Rng rng(29);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(5, 3, 40, rng);
    std::string bytes = write_aiger_binary(aig);
    Aig back = read_aiger_binary(bytes);
    ASSERT_EQ(back.num_pis(), aig.num_pis());
    ASSERT_EQ(back.num_pos(), aig.num_pos());
    EXPECT_TRUE(testing::functionally_equal(aig, back));
    for (std::size_t i = 0; i < aig.num_pis(); ++i) {
      EXPECT_EQ(back.pi_name(i), aig.pi_name(i));
    }
    for (std::size_t i = 0; i < aig.num_pos(); ++i) {
      EXPECT_EQ(back.po_name(i), aig.po_name(i));
    }
  }
}

TEST(AigIoBinary, WriteReadWriteIsAByteFixedPoint) {
  // write(read(write(aig))) == write(aig): the writer renumbers PIs first
  // and ANDs ascending, and the reader rebuilds in exactly that order, so
  // one round trip normalizes and a second changes nothing. The partition
  // checkpoint format stores these bytes and depends on this property for
  // resume determinism.
  Rng rng(31);
  for (int round = 0; round < 8; ++round) {
    Aig aig = testing::random_aig(6, 4, 60, rng);
    std::string once = write_aiger_binary(aig);
    std::string twice = write_aiger_binary(read_aiger_binary(once));
    EXPECT_EQ(twice, once) << "round " << round;
  }
}

TEST(AigIoBinary, ConstantAndPassThroughOutputs) {
  Aig aig;
  Lit a = make_lit(aig.add_pi("a"));
  aig.add_po(kLitTrue, "t");
  aig.add_po(kLitFalse, "f");
  aig.add_po(lit_not(a), "na");
  Aig back = read_aiger_binary(write_aiger_binary(aig));
  EXPECT_EQ(back.po(0), kLitTrue);
  EXPECT_EQ(back.po(1), kLitFalse);
  EXPECT_EQ(back.po(2), lit_not(make_lit(back.pis()[0])));
  EXPECT_EQ(back.po_name(2), "na");
}

TEST(AigIoBinary, TruncationThrowsOrPreservesFunction) {
  // Every prefix that cuts into the mandatory sections (header, PO lines,
  // delta codes) must throw. Prefixes that only cut the optional trailing
  // symbol table still parse — the names are shortened or dropped, but the
  // circuit itself must come back intact.
  Rng rng(37);
  Aig aig = testing::random_aig(4, 2, 25, rng);
  std::string bytes = write_aiger_binary(aig);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string prefix = bytes.substr(0, len);
    try {
      Aig back = read_aiger_binary(prefix);
      EXPECT_TRUE(testing::functionally_equal(aig, back))
          << "prefix length " << len;
    } catch (const std::runtime_error&) {
      // The expected outcome for any structurally incomplete prefix.
    }
  }
  // The fully-stripped mandatory prefix (no symbol table at all) parses:
  // spot-check that truncation inside the delta section really does throw
  // by cutting one byte into it is covered above; here pin the boundary —
  // dropping the whole symbol table is legal.
  std::size_t symtab = bytes.find("i0 pi0\n");
  ASSERT_NE(symtab, std::string::npos);
  Aig stripped = read_aiger_binary(bytes.substr(0, symtab));
  EXPECT_TRUE(testing::functionally_equal(aig, stripped));
}

TEST(AigIoBinary, RejectsMalformedHeaders) {
  // ASCII format fed to the binary reader.
  EXPECT_THROW(read_aiger_binary("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"),
               std::runtime_error);
  // Latches unsupported.
  EXPECT_THROW(read_aiger_binary("aig 2 1 1 0 0\n"), std::runtime_error);
  // Non-contiguous numbering: m != i + a.
  EXPECT_THROW(read_aiger_binary("aig 5 2 0 1 1\n6\n"), std::runtime_error);
  // Fabricated counts larger than the input.
  EXPECT_THROW(read_aiger_binary("aig 4000000000 4000000000 0 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(read_aiger_binary("aig 2 1 0 4000000000 1\n"),
               std::runtime_error);
  // Non-numeric and missing tokens.
  EXPECT_THROW(read_aiger_binary("aig x 1 0 0 0\n"), std::runtime_error);
  EXPECT_THROW(read_aiger_binary("aig 1 1 0 0\n"), std::runtime_error);
  EXPECT_THROW(read_aiger_binary(""), std::runtime_error);
}

TEST(AigIoBinary, RejectsMalformedDeltas) {
  // Header declares one AND over one PI; craft bad delta pairs by hand.
  // Valid would be e.g. lhs=4 (var 2), rhs0=2, rhs1=2: delta0=2, delta1=0.
  std::string base = "aig 2 1 0 1 1\n4\n";
  // delta0 == 0 (AND output equals rhs0 — non-monotone numbering).
  EXPECT_THROW(read_aiger_binary(base + '\0' + '\0'), std::runtime_error);
  // delta0 > lhs (rhs0 would be negative).
  {
    std::string bad = base;
    bad.push_back(static_cast<char>(9));
    bad.push_back(static_cast<char>(0));
    EXPECT_THROW(read_aiger_binary(bad), std::runtime_error);
  }
  // delta1 > lhs - delta0 (rhs1 would be negative).
  {
    std::string bad = base;
    bad.push_back(static_cast<char>(1));
    bad.push_back(static_cast<char>(9));
    EXPECT_THROW(read_aiger_binary(bad), std::runtime_error);
  }
  // Unterminated (all-continuation) varint.
  {
    std::string bad = base + std::string(12, static_cast<char>(0x80));
    EXPECT_THROW(read_aiger_binary(bad), std::runtime_error);
  }
}

TEST(AigIoBinary, RejectsMalformedSymbolTable) {
  Aig aig;
  Lit a = make_lit(aig.add_pi());
  Lit b = make_lit(aig.add_pi());
  aig.add_po(aig.make_and(a, b));
  std::string bytes = write_aiger_binary(aig);
  // Unknown symbol prefix.
  EXPECT_THROW(read_aiger_binary(bytes + "x0 name\n"), std::runtime_error);
  // Symbol index out of range.
  EXPECT_THROW(read_aiger_binary(bytes + "i7 name\n"), std::runtime_error);
  EXPECT_THROW(read_aiger_binary(bytes + "o9 name\n"), std::runtime_error);
  // Comment section is tolerated and ignored.
  Aig back = read_aiger_binary(bytes + "c\nanything at all\n");
  EXPECT_TRUE(testing::functionally_equal(aig, back));
}

}  // namespace
}  // namespace emorphic
