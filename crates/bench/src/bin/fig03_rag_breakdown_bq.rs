fn main() {
    reis_bench::figures::fig03_rag_breakdown_bq().print();
}
